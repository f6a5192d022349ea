package fastpath

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flowstate"
	"repro/internal/protocol"
)

// lockedNIC is a stubNIC safe to read while a core goroutine transmits.
type lockedNIC struct {
	mu  sync.Mutex
	out int
}

func (n *lockedNIC) Output(*protocol.Packet) { n.mu.Lock(); n.out++; n.mu.Unlock() }
func (n *lockedNIC) sent() int               { n.mu.Lock(); defer n.mu.Unlock(); return n.out }

// countNIC counts transmissions without allocating or locking.
type countNIC struct{ out atomic.Int64 }

func (n *countNIC) Output(*protocol.Packet) { n.out.Add(1) }

func oneCoreEngine(nic NIC) *Engine {
	ip := protocol.MakeIPv4(10, 0, 0, 1)
	// No slow path is attached, so no slow-path watchdog either.
	return NewEngine(nic, Config{LocalIP: ip, LocalMAC: protocol.MACForIPv4(ip), MaxCores: 1, SlowPathTimeout: -1})
}

// TestBlockRecheck drives the lost-wakeup interleaving on every queue a
// core polls: an item enqueued after the core's last poll but before it
// publishes asleep rings no doorbell (the producer saw asleep == false),
// so only the park path's own re-check keeps it from waiting out the
// 100ms park beat. The items are ones that take the doorbell, not an
// inline edge: a two-segment send, a segment without PSH, a kick.
func TestBlockRecheck(t *testing.T) {
	for _, tc := range []struct {
		name    string
		produce func(t *testing.T, e *Engine, ctx *Context, f *flowstate.Flow)
	}{
		{"SeesContextTx", func(t *testing.T, e *Engine, ctx *Context, f *flowstate.Flow) {
			n := 2 * protocol.DefaultMSS
			f.Lock()
			f.TxBuf.Write(make([]byte, n))
			f.Unlock()
			if !e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: uint32(n)}) {
				t.Error("PushTxCmd refused")
			}
		}},
		{"SeesRxRing", func(t *testing.T, e *Engine, ctx *Context, f *flowstate.Flow) {
			e.Input(dataPkt(f, 5000, []byte("late")))
		}},
		{"SeesKick", func(t *testing.T, e *Engine, ctx *Context, f *flowstate.Flow) {
			f.Lock()
			f.TxBuf.Write(make([]byte, 100))
			f.Unlock()
			e.KickFlow(f)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nic := &lockedNIC{}
			e := oneCoreEngine(nic)
			f := testFlow(e)
			ctx := NewContext(0, 1, 64)
			e.RegisterContext(ctx)
			f.Context = 0

			pushed := make(chan time.Time, 1)
			faultOnce(e, FaultCorePark, 0, func() {
				tc.produce(t, e, ctx, f)
				pushed <- time.Now()
			})
			e.Start()
			defer e.Stop()

			var at time.Time
			select {
			case at = <-pushed:
			case <-time.After(2 * time.Second):
				t.Fatal("core never reached its park path")
			}
			for nic.sent() == 0 {
				if time.Since(at) > 50*time.Millisecond {
					t.Fatalf("item enqueued in the sleep window still unserved after %v: lost wakeup", time.Since(at))
				}
				time.Sleep(200 * time.Microsecond)
			}
		})
	}
}

// TestParkPacingTimer: a flow waiting for rate tokens is a producer
// too — the one whose doorbell is the clock. The core must park until
// the bucket can pay (not poll, not wait out the park beat), must not
// book the refused retries as work, and still answers its doorbell in
// the meantime.
func TestParkPacingTimer(t *testing.T) {
	nic := &lockedNIC{}
	e := oneCoreEngine(nic)
	f := testFlow(e)
	ctx := NewContext(0, 1, 64)
	e.RegisterContext(ctx)
	f.Context = 0
	// An empty bucket refilled at 6 KB/s pays for one 100-byte segment
	// (166 B on the wire) after ~28ms.
	f.RateBucket.SetRate(6000)
	e.Start()
	defer e.Stop()

	f.Lock()
	f.TxBuf.Write(make([]byte, 100))
	f.Unlock()
	start := time.Now()
	if !e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: 100}) {
		t.Fatal("PushTxCmd refused")
	}
	// A doorbell during the wait is served at once: the data packet is
	// acknowledged long before the tokens arrive.
	time.Sleep(2 * time.Millisecond)
	e.Input(dataPkt(f, 5000, []byte("ping")))
	waitFor(t, "ack while waiting for tokens", func() bool { return nic.sent() == 1 })
	if waited := time.Since(start); waited > 20*time.Millisecond {
		t.Fatalf("doorbell answered only after %v", waited)
	}

	waitFor(t, "paced segment", func() bool { return nic.sent() == 2 })
	waited := time.Since(start)
	if waited < 20*time.Millisecond || waited > 80*time.Millisecond {
		t.Fatalf("segment left after %v; the bucket pays at ~28ms and the park beat is %v", waited, parkBeat)
	}
	_, polled := e.CoreIdleNanos(0)
	if parks := e.Stats(0).Blocks.Load(); parks > 20 || polled > int64(5*time.Millisecond) {
		t.Fatalf("core parked %d times and polled %v while waiting %v for tokens: it spun instead of sleeping on the timer",
			parks, time.Duration(polled), waited)
	}
}

// TestParkHammer runs closed-loop producers on both of a core's queues
// against a core they keep parking — packets on the receive ring, and
// the slow path's kicks and an application's requests on the request
// ring: on even rounds a producer waits until the core is asleep before
// it rings, so the doorbell is hit from three sides at once while the
// core is parking or waking; on odd rounds it
// rings after a short random pause, wherever the core happens to be. A
// lost wakeup shows as an item served by the 100ms park beat instead of
// a doorbell.
func TestParkHammer(t *testing.T) {
	nic := &countNIC{}
	e := oneCoreEngine(nic)
	f := testFlow(e)
	ctx := NewContext(0, 1, 64)
	e.RegisterContext(ctx)
	f.Context = 0
	c := e.cores[0]
	e.Start()
	defer e.Stop()

	rounds := 2000
	if testing.Short() {
		rounds = 400
	}
	pkt := ackPkt(f, f.SeqNo) // a pure duplicate ACK: nothing to allocate, nothing to send
	var slowest atomic.Int64
	var wg sync.WaitGroup
	for i, p := range []struct {
		put     func()
		drained func() bool
	}{
		{func() { e.Input(pkt) }, func() bool { return c.rxRing.Len() == 0 }},
		{func() { e.KickFlow(f) }, func() bool { return c.kicks.Len() == 0 }},
		{func() { e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f}) }, func() bool { return c.kicks.Len() == 0 }},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for r := 0; r < rounds; r++ {
				if r%2 == 0 {
					for !c.asleep.Load() {
						runtime.Gosched()
					}
				} else {
					pause := time.Duration(rng.Intn(20)) * time.Microsecond
					for start := time.Now(); time.Since(start) < pause; {
						runtime.Gosched()
					}
				}
				at := time.Now()
				p.put()
				for !p.drained() {
					runtime.Gosched()
				}
				if d := int64(time.Since(at)); d > slowest.Load() {
					slowest.Store(d)
				}
			}
		}()
	}
	wg.Wait()
	if d := time.Duration(slowest.Load()); d > 80*time.Millisecond {
		t.Fatalf("an item waited %v: served by the park beat, not by its doorbell", d)
	}
	if parks := c.stats.Blocks.Load(); parks < uint64(rounds/4) {
		t.Fatalf("core parked %d times in %d rounds: the hammer never hit the park path", parks, 3*rounds)
	}
}

// TestParkedCoreStillBeats: the slow path's core watchdog declares a
// core dead when its beat counter stops for CoreTimeout (250ms at the
// least). A core with nothing to do must keep surfacing.
func TestParkedCoreStillBeats(t *testing.T) {
	e := oneCoreEngine(&countNIC{})
	e.Start()
	defer e.Stop()
	waitFor(t, "park", func() bool { return e.cores[0].asleep.Load() })
	before := e.CoreBeat(0)
	time.Sleep(250 * time.Millisecond)
	if got := e.CoreBeat(0) - before; got < 1 || got > 50 {
		t.Fatalf("parked core beat %d times in 250ms, want one per %v park", got, parkBeat)
	}
}

// TestParkedCoreUtilization: utilization is time, not loop counts — a
// core that parks logs almost no idle loops and would otherwise read as
// all work.
func TestParkedCoreUtilization(t *testing.T) {
	nic := &countNIC{}
	e := oneCoreEngine(nic)
	// The saturating load is one pure ACK for each of stepBatch flows in
	// turn: the receive stage works a batch per flow, so packets of one
	// flow would cost it less than the producer pays to queue them.
	var load [stepBatch]*protocol.Packet
	for i := range load {
		g := portFlow(e, uint16(6000+i))
		load[i] = ackPkt(g, g.SeqNo)
	}
	f := testFlow(e)
	// Not running yet: no work, whatever the wall clock says.
	time.Sleep(5 * time.Millisecond)
	if u := e.Utilization(0); u != 0 {
		t.Fatalf("utilization of a core that never ran: %v", u)
	}
	e.Start()
	defer e.Stop()

	// Parked but for a packet every 10ms.
	e.Utilization(0)
	pkt := ackPkt(f, f.SeqNo)
	for i := 0; i < 10; i++ {
		time.Sleep(10 * time.Millisecond)
		e.Input(pkt)
	}
	if u := e.Utilization(0); u >= 0.05 {
		t.Fatalf("core parked ~99%% of the interval reports utilization %v", u)
	}
	parked, polled := e.CoreIdleNanos(0)
	if parked < int64(80*time.Millisecond) || polled > parked/10 {
		t.Fatalf("idle accounting: parked %v, polled %v", time.Duration(parked), time.Duration(polled))
	}

	// Saturated: the ring never runs dry, the core never reaches its
	// idle path, and it reads (close to) fully busy.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for d, _ := e.RxRingDepth(0); d < 256; d++ {
				e.Input(load[d%stepBatch])
			}
			runtime.Gosched()
		}
	}()
	time.Sleep(10 * time.Millisecond)
	e.Utilization(0)
	time.Sleep(50 * time.Millisecond)
	u := e.Utilization(0)
	close(stop)
	wg.Wait()
	if u < 0.5 {
		t.Fatalf("saturated core reports utilization %v", u)
	}
}

// parkWakeRound is one park → doorbell → resume cycle: wait for the
// core to park, ring it with a packet, wait for the packet to be
// processed.
func parkWakeRound(e *Engine, pkt *protocol.Packet) {
	c := e.cores[0]
	for !c.asleep.Load() {
		runtime.Gosched()
	}
	seen := c.stats.RxPackets.Load()
	e.Input(pkt)
	for c.stats.RxPackets.Load() == seen {
		runtime.Gosched()
	}
}

// TestParkWakeAllocs: nothing on the park/wake path allocates — no
// timer, no channel, no closure per park.
func TestParkWakeAllocs(t *testing.T) {
	e := oneCoreEngine(&countNIC{})
	f := testFlow(e)
	e.Start()
	defer e.Stop()
	pkt := ackPkt(f, f.SeqNo)
	parks := e.Stats(0).Blocks.Load()
	if avg := testing.AllocsPerRun(200, func() { parkWakeRound(e, pkt) }); avg != 0 {
		t.Fatalf("park → Input → resume allocates %v objects per round, want 0", avg)
	}
	if got := e.Stats(0).Blocks.Load() - parks; got < 200 {
		t.Fatalf("%d parks in 200 rounds: the rounds did not go through the park path", got)
	}
}
