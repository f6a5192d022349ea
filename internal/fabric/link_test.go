package fabric

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
)

func mkPkt(src, dst protocol.IPv4, payload int) *protocol.Packet {
	return &protocol.Packet{
		SrcIP: src, DstIP: dst,
		SrcPort: 1000, DstPort: 2000,
		Payload: make([]byte, payload),
	}
}

// TestLinkSerializesAtRate: with the link model installed, back-to-back
// sends drain at the configured rate instead of arriving as one burst.
// 50 x ~1KiB packets at 10 Mbit/s need >= ~40ms of pure transmission
// time; the flat-latency model would deliver them all "instantly".
func TestLinkSerializesAtRate(t *testing.T) {
	f := New()
	var mu sync.Mutex
	var arrivals []time.Time
	done := make(chan struct{})
	const n = 50
	f.Attach(protocol.MakeIPv4(10, 0, 0, 2), func(pkt *protocol.Packet) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		if len(arrivals) == n {
			close(done)
		}
		mu.Unlock()
	})
	nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
	f.SetLink(LinkConfig{RateBps: 10e6, QueueCap: n + 1})

	start := time.Now()
	for i := 0; i < n; i++ {
		nic.Output(mkPkt(protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2), 1024))
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("packets never all arrived")
	}
	elapsed := time.Since(start)
	// Wire length ~1078B => ~0.86ms each at 10 Mbit/s => ~43ms total.
	// Assert at least half of the ideal serialization time to stay
	// robust to coarse timers, and that it is nowhere near instant.
	if elapsed < 20*time.Millisecond {
		t.Fatalf("50 packets at 10Mbps delivered in %v: link did not serialize (artificial burst)", elapsed)
	}
	// FIFO order per destination must hold.
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].Before(arrivals[i-1]) {
			t.Fatalf("arrival %d before %d: reordered within a link", i, i-1)
		}
	}
}

// TestLinkQueueBounded: flooding a slow link overflows its drop-tail
// queue; the overflow is counted, and at most QueueCap+1 packets (the
// queue plus the one transmitting) survive.
func TestLinkQueueBounded(t *testing.T) {
	f := New()
	var delivered atomic.Int64
	f.Attach(protocol.MakeIPv4(10, 0, 0, 2), func(*protocol.Packet) { delivered.Add(1) })
	nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
	const qcap = 8
	f.SetLink(LinkConfig{RateBps: 1e6, QueueCap: qcap}) // ~8.6ms per 1KiB packet

	const n = 64
	for i := 0; i < n; i++ {
		nic.Output(mkPkt(protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2), 1024))
	}
	if drops := f.QueueDrops.Load(); drops == 0 {
		t.Fatal("flooding a bounded link queue produced no QueueDrops")
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if delivered.Load()+int64(f.QueueDrops.Load()) == n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := delivered.Load(); got > qcap+1 {
		t.Fatalf("delivered %d packets through a queue of %d", got, qcap)
	}
	if got, drops := delivered.Load(), f.QueueDrops.Load(); got+int64(drops) != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", got, drops, n)
	}
}

// TestLinkPropagationSeparate: propagation delay applies after
// transmission — a single packet arrives no earlier than tx+prop, and
// reconfiguring the rate mid-run takes effect.
func TestLinkPropagationSeparate(t *testing.T) {
	f := New()
	got := make(chan time.Time, 1)
	f.Attach(protocol.MakeIPv4(10, 0, 0, 2), func(*protocol.Packet) { got <- time.Now() })
	nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
	f.SetLink(LinkConfig{RateBps: 1e9, PropDelay: 30 * time.Millisecond})

	start := time.Now()
	nic.Output(mkPkt(protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2), 256))
	select {
	case at := <-got:
		if d := at.Sub(start); d < 25*time.Millisecond {
			t.Fatalf("packet arrived after %v, want >= ~30ms propagation", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived")
	}

	// Mid-run reconfiguration: drop the propagation delay and the next
	// packet arrives promptly.
	f.SetLink(LinkConfig{RateBps: 1e9})
	start = time.Now()
	nic.Output(mkPkt(protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2), 256))
	select {
	case at := <-got:
		if d := at.Sub(start); d > 20*time.Millisecond {
			t.Fatalf("packet took %v after clearing propagation delay", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived after reconfig")
	}
}

// TestLinkECNMarks: ECN-capable packets entering a queue past the
// threshold get CE-marked at the congestion point.
func TestLinkECNMarks(t *testing.T) {
	f := New()
	var ce atomic.Int64
	var n atomic.Int64
	done := make(chan struct{})
	const total = 32
	f.Attach(protocol.MakeIPv4(10, 0, 0, 2), func(pkt *protocol.Packet) {
		if pkt.ECN == protocol.ECNCE {
			ce.Add(1)
		}
		if n.Add(1) == total {
			close(done)
		}
	})
	nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
	f.SetLink(LinkConfig{RateBps: 5e6, QueueCap: total + 1, ECNThreshold: 4})

	for i := 0; i < total; i++ {
		pkt := mkPkt(protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2), 1024)
		pkt.ECN = protocol.ECNECT0
		nic.Output(pkt)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("packets never all arrived")
	}
	if ce.Load() == 0 || f.CEMarks.Load() == 0 {
		t.Fatal("no CE marks despite queue past the ECN threshold")
	}
}

// TestReseedReproducesLossPattern: after Reseed with the same seed, the
// uniform-loss process makes identical per-packet decisions — the
// determinism contract the scenario engine depends on.
func TestReseedReproducesLossPattern(t *testing.T) {
	pattern := func(seed int64) []bool {
		f := New()
		var mu sync.Mutex
		var seen []bool
		f.Attach(protocol.MakeIPv4(10, 0, 0, 2), func(pkt *protocol.Packet) {
			mu.Lock()
			seen = append(seen, true)
			mu.Unlock()
		})
		nic := f.Attach(protocol.MakeIPv4(10, 0, 0, 1), func(*protocol.Packet) {})
		f.Reseed(seed)
		f.SetLossRate(0.5)
		var out []bool
		for i := 0; i < 200; i++ {
			mu.Lock()
			before := len(seen)
			mu.Unlock()
			nic.Output(mkPkt(protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2), 64))
			mu.Lock()
			out = append(out, len(seen) > before)
			mu.Unlock()
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss decision %d diverged across identically-seeded runs", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical loss patterns (seed not wired through)")
	}
}

// TestPooledPacketHasOneOwnerAcrossTheFabric sends pooled packets
// through the delivery that holds a packet past Output — the link queue
// (overflowing, and CE-marking by clone) — with a receiver that does what a fast-path core does: read
// the packet, then release it. Each packet carries its sequence number
// in every payload byte. A packet the fabric released as well, or
// delivered twice, or recycled while queued, arrives with another
// packet's bytes or the release poison (and under -race panics in
// Release or AssertLive).
func TestPooledPacketHasOneOwnerAcrossTheFabric(t *testing.T) {
	src, dst := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	const n = 200
	scribble := bytes.Repeat([]byte{0xFF}, 512)
	for _, tc := range []struct {
		name  string
		setup func(f *Fabric)
	}{
		{"link queue overflow", func(f *Fabric) {
			f.SetLink(LinkConfig{RateBps: 50e6, QueueCap: 16, ECNThreshold: 4, PropDelay: 100 * time.Microsecond})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := New()
			tc.setup(f)
			var mu sync.Mutex
			seen := make(map[byte]int)
			var bad []string
			var handled atomic.Uint64
			f.Attach(dst, func(p *protocol.Packet) {
				p.AssertLive()
				id := byte(p.Seq)
				ok := len(p.Payload) == 512 && bytes.Count(p.Payload, []byte{id}) == 512
				mu.Lock()
				seen[id]++
				if !ok {
					bad = append(bad, p.String())
				}
				mu.Unlock()
				p.Release()
				handled.Add(1)
			})
			nic := f.Attach(src, func(*protocol.Packet) {})
			for i := 0; i < n; i++ {
				p := protocol.NewPacket()
				p.SrcIP, p.DstIP, p.Seq, p.ECN = src, dst, uint32(i), protocol.ECNECT0
				payload := p.AllocPayload(512)
				for j := range payload {
					payload[j] = byte(i)
				}
				nic.Output(p)
				// Keep the pool busy while packets sit in timers and queues:
				// anything released early is handed out here and overwritten.
				q := protocol.NewPacket()
				copy(q.AllocPayload(512), scribble)
				q.Release()
			}
			deadline := time.Now().Add(3 * time.Second)
			for handled.Load()+f.QueueDrops.Load() < n {
				if time.Now().After(deadline) {
					t.Fatalf("received %d + dropped %d of %d", handled.Load(), f.QueueDrops.Load(), n)
				}
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(bad) > 0 {
				t.Fatalf("%d packets arrived with bytes that were not theirs, first: %s", len(bad), bad[0])
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("packet %d delivered %d times", id, c)
				}
			}
			if tc.name == "link queue overflow" && (f.QueueDrops.Load() == 0 || f.CEMarks.Load() == 0) {
				t.Fatalf("link test exercised drops %d, CE clones %d: want both", f.QueueDrops.Load(), f.CEMarks.Load())
			}
		})
	}
}
