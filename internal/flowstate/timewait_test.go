package flowstate

import (
	"testing"

	"repro/internal/protocol"
)

func twKey(i int) protocol.FlowKey {
	return protocol.FlowKey{LocalPort: 80, RemotePort: uint16(i)}
}

// quarantine inserts tuples 1..n, tuple i expiring at i.
func quarantine(n int) *TimeWaitTable {
	t := NewTimeWaitTable()
	for i := 1; i <= n; i++ {
		t.Insert(&TimeWaitEntry{Key: twKey(i), Expiry: int64(i)})
	}
	return t
}

// TestTimeWaitExpireCountsDeletions: Expire returns exactly the number
// of map entries it deleted, with removed and replaced tuples still in
// the queue.
func TestTimeWaitExpireCountsDeletions(t *testing.T) {
	tw := quarantine(6)
	tw.Remove(twKey(2))
	tw.Insert(&TimeWaitEntry{Key: twKey(3), Expiry: 10}) // replaces 3's entry
	if n := tw.Expire(4); n != 2 {                       // 1 and 4
		t.Fatalf("Expire(4) = %d, want 2", n)
	}
	if tw.Lookup(twKey(3)) == nil || tw.Lookup(twKey(5)) == nil {
		t.Fatal("Expire took a tuple whose deadline has not passed")
	}
	if n := tw.Expire(100); n != 3 || tw.Len() != 0 { // 5, 6 and the new 3
		t.Fatalf("Expire(100) = %d leaving %d, want 3 leaving 0", n, tw.Len())
	}
	if n := tw.Expire(1000); n != 0 {
		t.Fatalf("Expire on an empty table = %d", n)
	}
}

// TestTimeWaitExtendedNeverExpiresEarly: a tuple whose deadline Extend
// pushed later survives every Expire before the new deadline, while the
// tuples queued behind it expire on time.
func TestTimeWaitExtendedNeverExpiresEarly(t *testing.T) {
	tw := quarantine(3)
	tw.Extend(twKey(1), 50)
	tw.Extend(twKey(2), 1) // earlier: ignored
	if n := tw.Expire(3); n != 2 || tw.Lookup(twKey(1)) == nil {
		t.Fatalf("Expire(3) = %d, tuple 1 present %v; want 2 and true", n, tw.Lookup(twKey(1)) != nil)
	}
	if n := tw.Expire(49); n != 0 {
		t.Fatalf("extended tuple expired at 49, before its deadline 50")
	}
	if e := tw.Lookup(twKey(1)); e == nil || e.Expiry != 50 {
		t.Fatalf("extended entry %+v", e)
	}
	if n := tw.Expire(50); n != 1 || tw.Len() != 0 {
		t.Fatalf("Expire(50) = %d leaving %d", n, tw.Len())
	}
}

// TestTimeWaitEvictOldest: eviction takes the least recently inserted or
// extended live tuple, skipping removed ones.
func TestTimeWaitEvictOldest(t *testing.T) {
	tw := quarantine(4)
	tw.Remove(twKey(1))
	tw.Extend(twKey(2), 20)
	for left, want := range []int{3, 4, 2} {
		if !tw.EvictOldest() || tw.Lookup(twKey(want)) != nil || tw.Len() != 2-left {
			t.Fatalf("eviction %d did not take tuple %d alone (Len %d)", left+1, want, tw.Len())
		}
	}
	if tw.EvictOldest() {
		t.Fatal("evicted from an empty table")
	}
}

// TestTimeWaitLenCountsLive: Len counts live tuples, not the stale
// entries a removal, replacement or extension leaves queued.
func TestTimeWaitLenCountsLive(t *testing.T) {
	tw := quarantine(4)
	tw.Remove(twKey(1))
	tw.Insert(&TimeWaitEntry{Key: twKey(2), Expiry: 9})
	tw.Extend(twKey(3), 9)
	if n := tw.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
}
