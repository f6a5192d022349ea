package flowstate

import (
	"sync"
	"testing"
)

// TestRSSSetCoresSpread verifies the basic round-robin rewrite: with no
// failures, n cores split the 128 buckets evenly.
func TestRSSSetCoresSpread(t *testing.T) {
	r := NewRSS()
	r.SetCores(4)
	counts := make(map[int]int)
	for i := 0; i < RSSTableSize; i++ {
		counts[r.CoreFor(uint32(i))]++
	}
	if len(counts) != 4 {
		t.Fatalf("buckets spread over %d cores, want 4", len(counts))
	}
	for c, n := range counts {
		if n != RSSTableSize/4 {
			t.Fatalf("core %d owns %d buckets, want %d", c, n, RSSTableSize/4)
		}
	}
}

// TestRSSNeverSteersToFailed is the core invariant of the data-plane
// failure domain: once a core is marked failed and the table rewritten,
// no bucket names it — and no later SetCores (scale event) can steer a
// bucket back until the exclusion clears.
func TestRSSNeverSteersToFailed(t *testing.T) {
	r := NewRSS()
	r.SetCores(4)
	r.SetFailed(2, true)
	r.SetCores(r.Cores()) // the failure re-steer

	check := func(when string) {
		t.Helper()
		for i := 0; i < RSSTableSize; i++ {
			if got := r.CoreFor(uint32(i)); got == 2 {
				t.Fatalf("%s: bucket %d steers to failed core 2", when, i)
			}
		}
	}
	check("after failure re-steer")

	// Scale events while the core is failed must keep excluding it.
	for _, n := range []int{2, 3, 4, 1, 4} {
		r.SetCores(n)
		check("after SetCores")
	}

	// Survivors still split the load.
	r.SetCores(4)
	counts := make(map[int]int)
	for i := 0; i < RSSTableSize; i++ {
		counts[r.CoreFor(uint32(i))]++
	}
	if _, bad := counts[2]; bad || len(counts) != 3 {
		t.Fatalf("bucket owners = %v, want cores {0,1,3}", counts)
	}

	// Re-admission: clearing the exclusion and rewriting folds the core
	// back in.
	r.SetFailed(2, false)
	r.SetCores(4)
	counts = make(map[int]int)
	for i := 0; i < RSSTableSize; i++ {
		counts[r.CoreFor(uint32(i))]++
	}
	if counts[2] == 0 {
		t.Fatalf("core 2 owns no buckets after re-admission: %v", counts)
	}
}

// TestRSSFailedFallback: when every core in the active set is failed,
// steering spills to the lowest live core outside the active set but
// inside the physical limit (those cores exist and process packets,
// they just held no buckets while healthy); when every physical core
// is failed the table still holds a valid in-range index — core 0 —
// never a core beyond the limit: engines size their core arrays from
// their own configuration, and an out-of-range entry would turn a
// steering decision into a crash on whichever goroutine delivers the
// packet.
func TestRSSFailedFallback(t *testing.T) {
	r := NewRSS()
	r.SetLimit(4)
	r.SetFailed(0, true)
	r.SetFailed(1, true)
	r.SetCores(2)
	for i := 0; i < RSSTableSize; i++ {
		if got := r.CoreFor(uint32(i)); got != 2 {
			t.Fatalf("bucket %d -> core %d, want spill to live core 2", i, got)
		}
	}
	if r.FailedCount() != 2 {
		t.Fatalf("FailedCount = %d, want 2", r.FailedCount())
	}
	// Clearing a failed bit inside the active set restores it as the
	// sole target — spill is a last resort.
	r.SetFailed(1, false)
	r.SetCores(2)
	for i := 0; i < RSSTableSize; i++ {
		if got := r.CoreFor(uint32(i)); got != 1 {
			t.Fatalf("bucket %d -> core %d, want sole survivor core 1", i, got)
		}
	}
	// Every physical core failed: core 0 remains the (blackholing but
	// in-range) target; the spill never crosses the limit.
	for i := 0; i < 64; i++ {
		r.SetFailed(i, true)
	}
	r.SetCores(2)
	for i := 0; i < RSSTableSize; i++ {
		if got := r.CoreFor(uint32(i)); got != 0 {
			t.Fatalf("bucket %d -> core %d, want 0 with all cores failed", i, got)
		}
	}
	// Without a limit the active set is all there is: no spill.
	r2 := NewRSS()
	r2.SetFailed(0, true)
	r2.SetFailed(1, true)
	r2.SetCores(2)
	for i := 0; i < RSSTableSize; i++ {
		if got := r2.CoreFor(uint32(i)); got != 0 {
			t.Fatalf("bucket %d -> core %d, want 0 with no physical limit", i, got)
		}
	}
}

// TestRSSRewriteTransient exercises the paper's §3.4 tolerance claim
// directly: readers racing a rewrite may see a mix of old and new
// entries, but every value observed must be a member of one of the two
// legal steering sets — never the failed core, never garbage. Run with
// -race this also proves the rewrite itself is data-race-free.
func TestRSSRewriteTransient(t *testing.T) {
	r := NewRSS()
	r.SetCores(4)
	r.SetFailed(3, true)
	r.SetCores(4) // SetFailed's contract: rewrite the table after it

	stop := make(chan struct{})
	var bad sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < RSSTableSize; i++ {
					c := r.CoreFor(uint32(i))
					// Legal owners across all interleavings: cores 0..3
					// minus the permanently failed core 3.
					if c < 0 || c > 3 || c == 3 {
						bad.Store(c, i)
					}
				}
			}
		}()
	}
	// Writer: oscillate the active-set size, as the scaling monitor
	// does, while core 3 stays failed throughout.
	for iter := 0; iter < 2000; iter++ {
		r.SetCores(1 + iter%4)
	}
	close(stop)
	wg.Wait()
	bad.Range(func(core, bucket any) bool {
		t.Errorf("reader observed illegal core %v at bucket %v", core, bucket)
		return true
	})
}
