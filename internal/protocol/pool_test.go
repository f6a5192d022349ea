package protocol

import (
	"bytes"
	"testing"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestCloneIsNotPooled(t *testing.T) {
	p := NewPacket()
	p.Seq = 7
	copy(p.AllocPayload(4), "abcd")
	q := p.Clone()
	if q.owner != ownerNone || q.slab != nil {
		t.Fatalf("clone carries the pool's marks: owner %d, slab %v", q.owner, q.slab != nil)
	}
	p.Release()
	// The original's slab goes back to the pool and its next owner
	// scribbles on it; the clone keeps its own bytes.
	r := NewPacket()
	copy(r.AllocPayload(4), "WXYZ")
	q.Release() // a clone is nobody's to recycle: no-op, twice over
	q.Release()
	if q.Seq != 7 || !bytes.Equal(q.Payload, []byte("abcd")) {
		t.Fatalf("clone changed after its original was recycled: seq %d payload %q", q.Seq, q.Payload)
	}
	r.Release()
}

func TestNewPacketIsZeroed(t *testing.T) {
	p := NewPacket()
	p.Seq, p.Flags, p.HasTS, p.TSEcr = 9, FlagACK|FlagECE, true, 5
	p.AllocPayload(100)
	p.Release()
	for i := 0; i < 4; i++ { // whichever packet the pool hands back
		q := NewPacket()
		if q.Seq != 0 || q.Flags != 0 || q.HasTS || q.TSEcr != 0 || q.Payload != nil || q.DataLen() != 0 {
			t.Fatalf("pooled packet not reset: %+v", q)
		}
		defer q.Release()
	}
}

func TestAllocPayloadGrowsPastDefaultMSS(t *testing.T) {
	p := NewPacket()
	defer p.Release()
	if got := p.AllocPayload(64); len(got) != 64 || cap(got) < DefaultMSS {
		t.Fatalf("payload len %d cap %d, want 64 of an MSS slab", len(got), cap(got))
	}
	if got := len(p.AllocPayload(9000)); got != 9000 {
		t.Fatalf("jumbo payload %d bytes, want 9000", got)
	}
}

// TestReleaseIsChecked pins the race build's ownership checks: the slab
// of a released packet is poisoned, and a second Release or a stage
// that still uses the packet panics.
func TestReleaseIsChecked(t *testing.T) {
	if !OwnershipChecked {
		t.Skip("ownership checks are compiled into race builds only")
	}
	p := NewPacket()
	payload := p.AllocPayload(8)
	copy(payload, "live....")
	p.Release()
	if !bytes.Equal(payload, bytes.Repeat([]byte{0xDE}, 8)) {
		t.Fatalf("released slab not poisoned: % x", payload)
	}
	mustPanic(t, "second Release", p.Release)
	mustPanic(t, "AssertLive on a released packet", p.AssertLive)
}
