package slowpath

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
)

// installKey is the i-th distinct peer 4-tuple toward a rig.
func installKey(sp *Slowpath, i int) protocol.FlowKey {
	return protocol.FlowKey{
		LocalIP: sp.eng.Config().LocalIP, LocalPort: 80,
		RemoteIP: protocol.MakeIPv4(10, 2, byte(i>>24), byte(i>>16)), RemotePort: uint16(i),
	}
}

// BenchmarkInstallFlow is the cost of installing one more established
// flow into a table already holding flows of them: constant in time and
// bytes, with no payload memory, whatever the table size. The timer
// stops while each installed flow is removed again, so the table holds
// flows flows at every install.
func BenchmarkInstallFlow(b *testing.B) {
	for _, flows := range []int{1, 1024, 4096} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			_, sp, _ := newWireRig(Config{})
			for i := 0; i < flows; i++ {
				sp.installFlow(installKey(sp, i), &halfOpen{iss: 1}, 1, 64)
			}
			key := installKey(sp, flows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := sp.installFlow(key, &halfOpen{iss: 1}, 1, 64)
				b.StopTimer()
				sp.removeFlow(f)
				b.StartTimer()
			}
			b.StopTimer()
			if n := sp.eng.Table.Len(); n != flows {
				b.Fatalf("table holds %d flows, want %d", n, flows)
			}
		})
	}
}

// TestResizeBuffersRacesAbort runs a buffer resize from the application
// against the peer's RST tearing the flow down. Whichever wins, the
// payload pool ends where it started: a resize before the removal is
// released with the flow, and one after it is refused.
func TestResizeBuffersRacesAbort(t *testing.T) {
	for round := 0; round < 100; round++ {
		g := resource.New(resource.Limits{})
		eng, sp, _ := newWireRig(Config{Gov: g})
		f := rigFlow(eng, sp, 1, eng.NowNanos())
		if err := g.AcquireFlow(0, int64(f.RxBuf.Size()+f.TxBuf.Size())); err != nil {
			t.Fatal(err)
		}
		rst := peerSegment(f, protocol.FlagRST, f.AckNo, 0)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp.ResizeBuffers(f, 4<<10, 4<<10)
		}()
		sp.handleException(rst)
		wg.Wait()
		if eng.Table.Len() != 0 {
			t.Fatal("flow not removed after RST")
		}
		if used := g.Used(resource.PoolPayload); used != 0 {
			t.Fatalf("round %d: %d payload bytes still charged after the flow was removed", round, used)
		}
	}
}
