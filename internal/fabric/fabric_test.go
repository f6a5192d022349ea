package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
)

func TestAttachDeliver(t *testing.T) {
	f := New()
	var mu sync.Mutex
	var got []*protocol.Packet
	f.Attach(protocol.MakeIPv4(10, 0, 0, 2), func(p *protocol.Packet) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
	nic.Output(&protocol.Packet{DstIP: protocol.MakeIPv4(10, 0, 0, 2)})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].SrcIP != nic.IP() {
		t.Fatal("source IP not stamped")
	}
	if (got[0].DstMAC == protocol.MAC{}) {
		t.Fatal("destination MAC not resolved")
	}
	if f.Delivered.Load() != 1 {
		t.Fatal("counter")
	}
}

func TestNoRouteDrops(t *testing.T) {
	f := New()
	nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
	nic.Output(&protocol.Packet{DstIP: protocol.MakeIPv4(99, 0, 0, 1)})
	if f.NoRoute.Load() != 1 {
		t.Fatal("no-route not counted")
	}
}

func TestDetach(t *testing.T) {
	f := New()
	ip := protocol.MakeIPv4(10, 0, 0, 2)
	f.Attach(ip, func(*protocol.Packet) { t.Fatal("detached host received packet") })
	f.Detach(ip)
	nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
	nic.Output(&protocol.Packet{DstIP: ip})
	if f.NoRoute.Load() != 1 {
		t.Fatal("expected no-route after detach")
	}
}

func TestLossInjection(t *testing.T) {
	f := New()
	f.SetLossRate(0.5)
	var n int
	f.Attach(protocol.MakeIPv4(10, 0, 0, 2), func(*protocol.Packet) { n++ })
	nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
	for i := 0; i < 2000; i++ {
		nic.Output(&protocol.Packet{DstIP: protocol.MakeIPv4(10, 0, 0, 2)})
	}
	if n < 700 || n > 1300 {
		t.Fatalf("delivered %d of 2000 at 50%% loss", n)
	}
	if f.Dropped.Load() != uint64(2000-n) {
		t.Fatal("drop counter inconsistent")
	}
}

// TestDirectOutputAllocatesNothing: with no link model and no loss, a
// hop is one atomic load of the routes and a call to the handler.
func TestDirectOutputAllocatesNothing(t *testing.T) {
	f := New()
	dst := protocol.MakeIPv4(10, 0, 0, 2)
	f.Attach(dst, func(*protocol.Packet) {})
	nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
	pkt := &protocol.Packet{DstIP: dst}
	if n := testing.AllocsPerRun(1000, func() { nic.Output(pkt) }); n != 0 {
		t.Fatalf("direct NIC.Output allocates %v times per packet, want 0", n)
	}
	if got := f.Delivered.Load(); got < 1000 {
		t.Fatalf("delivered %d packets", got)
	}
}

// TestLinkForLateAttach: a host attached after SetLink gets its own link
// at Attach, so packets toward it serialize at the link rate.
func TestLinkForLateAttach(t *testing.T) {
	const n = 50
	f := New()
	f.SetLink(LinkConfig{RateBps: 10e6, QueueCap: n + 1})
	var got atomic.Int64
	done := make(chan struct{})
	src, dst := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	f.Attach(dst, func(*protocol.Packet) {
		if got.Add(1) == n {
			close(done)
		}
	})
	nic := f.Attach(src, func(*protocol.Packet) {})
	start := time.Now()
	for i := 0; i < n; i++ {
		nic.Output(mkPkt(src, dst, 1024))
	}
	if got.Load() == n {
		t.Fatal("all packets delivered inside Output: the late host has no link")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d packets arrived", got.Load(), n)
	}
	// ~0.86 ms each at 10 Mbit/s, ~43 ms in all; half of it is the bound.
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("%d packets at 10 Mbit/s delivered in %v: not serialized", n, elapsed)
	}
}

// BenchmarkFabricHop is one packet's hop through NIC.Output on the
// direct path, with no-op handlers. Each sender has its own NIC and
// goroutine; ns/op is per packet of aggregate throughput, so
// senders=2 against senders=1 shows what the senders share.
func BenchmarkFabricHop(b *testing.B) {
	for _, senders := range []int{1, 2} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			f := New()
			dst := protocol.MakeIPv4(10, 0, 1, 1)
			f.Attach(dst, func(*protocol.Packet) {})
			nics := make([]*NIC, senders)
			for i := range nics {
				nics[i] = f.Attach(protocol.MakeIPv4(10, 0, 0, byte(i+1)), func(*protocol.Packet) {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, nic := range nics {
				n := b.N / senders
				if i == 0 {
					n += b.N % senders
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					pkt := &protocol.Packet{DstIP: dst}
					for j := 0; j < n; j++ {
						nic.Output(pkt)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestRoutesSwapUnderTraffic: two senders run while every writer of the
// route snapshot swaps it, and each packet ends up counted exactly once:
// delivered, dropped (link down, partition, link queue) or unroutable.
func TestRoutesSwapUnderTraffic(t *testing.T) {
	f := New()
	a, b, c := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2), protocol.MakeIPv4(10, 0, 0, 3)
	f.Attach(b, func(*protocol.Packet) {})
	nics := []*NIC{f.Attach(a, func(*protocol.Packet) {}), f.Attach(c, func(*protocol.Packet) {})}
	const perSender = 20000
	var wg sync.WaitGroup
	for _, nic := range nics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				nic.Output(mkPkt(nic.IP(), b, 64))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; ; i++ {
		select {
		case <-done:
			sum := f.Delivered.Load() + f.Dropped.Load() + f.NoRoute.Load()
			if sum != 2*perSender {
				t.Fatalf("delivered %d + dropped %d + no route %d = %d, sent %d",
					f.Delivered.Load(), f.Dropped.Load(), f.NoRoute.Load(), sum, 2*perSender)
			}
			return
		default:
		}
		switch i % 6 {
		case 0:
			f.SetLinkDown(a, i%12 == 0)
		case 1:
			f.Partition(c, b)
		case 2:
			f.Heal(c, b)
		case 3:
			f.SetLink(LinkConfig{RateBps: 1e9, QueueCap: 8})
		case 4:
			f.ClearLink()
			f.SetTap(func(int64, *protocol.Packet) {})
		case 5:
			f.Detach(b)
			f.Attach(b, func(*protocol.Packet) {})
			f.SetTap(nil)
		}
	}
}
