package fastpath

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flowstate"
	"repro/internal/protocol"
)

// pshPkt is dataPkt marked as the end of its sender's burst: alone in
// the ring, it is stepped inline by Input.
func pshPkt(f *flowstate.Flow, seq uint32, payload []byte) *protocol.Packet {
	p := dataPkt(f, seq, payload)
	p.Flags |= protocol.FlagPSH
	return p
}

// portFlow is testFlow under a different peer port: a second flow, or
// one steered to another core.
func portFlow(e *Engine, port uint16) *flowstate.Flow {
	f := testFlow(e)
	e.Table.Remove(f.Key())
	f.PeerPort = port
	e.Table.Insert(f)
	return f
}

// flowOnCore returns a flow that RSS steers to core i.
func flowOnCore(t *testing.T, e *Engine, i int) *flowstate.Flow {
	t.Helper()
	for port := uint16(5000); port < 6000; port++ {
		f := &flowstate.Flow{LocalIP: e.cfg.LocalIP, LocalPort: 80, PeerIP: protocol.MakeIPv4(10, 0, 0, 2), PeerPort: port}
		if e.CoreForFlow(f) == i {
			return portFlow(e, port)
		}
	}
	t.Fatalf("no peer port steers to core %d", i)
	return nil
}

// exclusiveNIC checks the run token from inside a one-core engine's
// steps: every Output there comes from a step's flush, so it must find
// the token held and no other Output in progress.
type exclusiveNIC struct {
	c                 *core
	busy              atomic.Bool
	overlaps, unowned atomic.Int64
}

func (n *exclusiveNIC) Output(p *protocol.Packet) {
	if !n.c.token.Load() {
		n.unowned.Add(1)
	}
	if !n.busy.CompareAndSwap(false, true) {
		n.overlaps.Add(1)
	} else {
		runtime.Gosched() // widen the window a second step would hit
		n.busy.Store(false)
	}
	p.Release()
}

// TestRunTokenExclusive hammers one core from both inline edges (a
// one-segment send, a lone PSH segment) and both doorbell producers (a
// pure ACK, a kick) while its goroutine polls and parks: at most one
// goroutine is ever inside the core's step. The race detector watches
// the core-local state a second step would share (batch clock, output
// batch, pacing list); the NIC watches the flushes.
func TestRunTokenExclusive(t *testing.T) {
	nic := &exclusiveNIC{}
	e := oneCoreEngine(nic)
	c := e.cores[0]
	nic.c = c
	tx, rx := testFlow(e), portFlow(e, 5001)
	ctx := NewContext(0, 1, 1024)
	e.RegisterContext(ctx)
	e.Start()
	defer e.Stop()

	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	msg := make([]byte, 64)
	puts := []func(){
		func() { // inline edge 1
			tx.Lock()
			if tx.TxBuf.Free() >= len(msg) {
				tx.TxBuf.Write(msg)
			}
			tx.Unlock()
			e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: tx, Bytes: uint32(len(msg))})
		},
		func() { e.Input(pshPkt(rx, 4990, msg[:10])) }, // inline edge 2: a duplicate, re-acked
		func() { // doorbell: acknowledge everything sent
			tx.Lock()
			seq := tx.SeqNo
			tx.Unlock()
			e.Input(ackPkt(tx, seq))
		},
		func() { e.KickFlow(tx) },
	}
	// A starved box can run a whole hammer without one inline step or one
	// park; run it again, a bounded number of times, until both occurred.
	for attempt := 0; c.stats.InlineSteps.Load() == 0 || c.stats.Blocks.Load() == 0; attempt++ {
		if attempt == 5 {
			t.Fatalf("inline steps %d, parks %d: the hammer missed a side", c.stats.InlineSteps.Load(), c.stats.Blocks.Load())
		}
		var wg sync.WaitGroup
		for i, put := range puts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(attempt*len(puts) + i)))
				for r := 0; r < rounds; r++ {
					put()
					if rng.Intn(8) == 0 {
						time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond) // let the core park
					}
				}
			}()
		}
		wg.Wait()
		waitFor(t, "queues drained", func() bool { return !e.hasWork(c) })
	}
	if n := nic.overlaps.Load(); n != 0 {
		t.Fatalf("%d flushes overlapped another step of the same core", n)
	}
	if n := nic.unowned.Load(); n != 0 {
		t.Fatalf("%d segments left a step that did not hold the run token", n)
	}
}

// gateNIC holds the first segment handed to it until release is closed:
// the producer flushing it keeps the core's run token meanwhile.
type gateNIC struct {
	entered, release chan struct{}
	once             sync.Once
	out              atomic.Int64
}

func (n *gateNIC) Output(*protocol.Packet) {
	n.once.Do(func() {
		close(n.entered)
		<-n.release
	})
	n.out.Add(1)
}

// TestInlineNoLostWork: release, then re-check. Everything producers
// queue while another producer holds the token — from the inline edges
// and the doorbell paths alike — rings no doorbell, and is served by the
// holder once it releases. The core's goroutine never runs, so nothing
// but that re-check can serve it.
func TestInlineNoLostWork(t *testing.T) {
	nic := &gateNIC{entered: make(chan struct{}), release: make(chan struct{})}
	e := oneCoreEngine(nic)
	c := e.cores[0]
	f := testFlow(e)
	ctx := NewContext(0, 1, 64)
	e.RegisterContext(ctx)

	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Input(pshPkt(f, 5000, []byte("a"))) // stepped inline; its ACK waits in the NIC
	}()
	<-nic.entered
	e.Input(pshPkt(f, 5001, []byte("b")))  // inline edge, token held
	e.Input(dataPkt(f, 5002, []byte("c"))) // doorbell path
	f.Lock()
	f.TxBuf.Write(make([]byte, 64))
	f.Unlock()
	e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: 64}) // inline edge, token held
	e.KickFlow(f)                                         // doorbell path
	if d, busy := c.stats.Doorbells.Load(), c.stats.TokenBusy.Load(); d != 0 || busy != 2 {
		t.Fatalf("with the token held: %d doorbells, %d busy activations; want 0 and 2", d, busy)
	}

	start := time.Now()
	close(nic.release)
	<-done
	if took := time.Since(start); took > parkBeat/4 {
		t.Fatalf("the holder took %v to serve what queued behind it", took)
	}
	f.Lock()
	ack, sent := f.AckNo, f.TxSent
	f.Unlock()
	if ack != 5003 || sent != 64 || e.hasWork(c) {
		t.Fatalf("left behind: AckNo %d (want 5003), TxSent %d (want 64), queues busy %v", ack, sent, e.hasWork(c))
	}
	if n := c.stats.InlineSteps.Load(); n < 2 {
		t.Fatalf("%d inline steps: the holder did not re-check after release", n)
	}
}

// TestInlineSkipsFailedCore: a core that is killed, stalled, failed or
// stopped is never stepped by a producer; its queues keep the
// strand-or-requeue semantics of the core-failure drain.
func TestInlineSkipsFailedCore(t *testing.T) {
	start := func(t *testing.T) (*Engine, *core, *flowstate.Flow) {
		e, _ := testEngine()
		e.Start()
		t.Cleanup(e.Stop)
		f := flowOnCore(t, e, 0)
		waitFor(t, "core 0 beats", func() bool { return e.CoreBeat(0) > 0 })
		return e, e.cores[0], f
	}
	acked := func(f *flowstate.Flow, want uint32) func() bool {
		return func() bool {
			f.Lock()
			defer f.Unlock()
			return f.AckNo == want
		}
	}

	t.Run("killed", func(t *testing.T) {
		e, c, f := start(t)
		e.KillCore(0)
		waitFor(t, "core 0 exit", func() bool { return e.CoreExited(0) })
		e.Input(pshPkt(f, 5000, []byte("hello")))
		if c.stats.InlineSteps.Load() != 0 || c.rxRing.Len() != 1 {
			t.Fatalf("killed core: %d inline steps, ring holds %d", c.stats.InlineSteps.Load(), c.rxRing.Len())
		}
		e.MarkCoreFailed(0)
		if n := e.DrainFailedCore(0); n != 1 {
			t.Fatalf("DrainFailedCore requeued %d, want 1", n)
		}
		waitFor(t, "survivor processes the requeued segment", acked(f, 5005))
	})

	t.Run("stalled", func(t *testing.T) {
		e, c, f := start(t)
		stallCore(e, 0, time.Second)
		waitFor(t, "core 0 stall", func() bool {
			b := e.CoreBeat(0)
			time.Sleep(20 * time.Millisecond)
			return e.CoreBeat(0) == b && c.token.Load()
		})
		e.Input(pshPkt(f, 5000, []byte("stuck")))
		if c.stats.InlineSteps.Load() != 0 || c.stats.TokenBusy.Load() != 1 || c.rxRing.Len() != 1 {
			t.Fatalf("stalled core: %d inline steps, %d busy, ring holds %d",
				c.stats.InlineSteps.Load(), c.stats.TokenBusy.Load(), c.rxRing.Len())
		}
		if n := e.DrainFailedCore(0); n != 0 || c.stats.Stranded.Load() != 1 {
			t.Fatalf("stalled core drained %d, stranded %d; want 0 and 1", n, c.stats.Stranded.Load())
		}
	})

	t.Run("failed", func(t *testing.T) {
		// After the verdict RSS steers nothing to the core; a segment
		// steered before it is still in its ring.
		e, c, f := start(t)
		e.MarkCoreFailed(0)
		c.rxRing.Enqueue(pshPkt(f, 5000, []byte("hello")))
		// The verdict's wake may have the core's own goroutine holding the
		// token, and then inline reports the segment left to it; either
		// way the producer must not step the core.
		e.inline(c, nil)
		if n := c.stats.InlineSteps.Load(); n != 0 {
			t.Fatal("a producer stepped a failed core")
		}
		e.notify(c)
		waitFor(t, "the failed core's own goroutine serves its ring", acked(f, 5005))
		if n := c.stats.InlineSteps.Load(); n != 0 {
			t.Fatalf("%d inline steps on a failed core", n)
		}
	})

	t.Run("stopped", func(t *testing.T) {
		e, c, f := start(t)
		e.Stop()
		e.Input(pshPkt(f, 5000, []byte("late")))
		if c.stats.InlineSteps.Load() != 0 || c.rxRing.Len() != 1 {
			t.Fatalf("stopped engine: %d inline steps, ring holds %d", c.stats.InlineSteps.Load(), c.rxRing.Len())
		}
	})
}

// lockCheckNIC asserts what flush promises: no segment reaches the NIC
// while its flow's lock is held, so a delivery that steps the receiving
// core inline never runs under a second flow lock.
type lockCheckNIC struct {
	t   *testing.T
	e   *Engine
	out int
}

func (n *lockCheckNIC) Output(p *protocol.Packet) {
	n.out++
	f := n.e.Table.Lookup(protocol.FlowKey{LocalIP: p.SrcIP, LocalPort: p.SrcPort, RemoteIP: p.DstIP, RemotePort: p.DstPort})
	if f == nil {
		n.t.Errorf("segment of no installed flow: %v", p)
		return
	}
	if !f.TryLock() {
		n.t.Errorf("handed to the NIC under its flow's lock: %v", p)
		return
	}
	f.Unlock()
}

// TestNoOutputUnderFlowLock drives every place a step produces a
// segment — the ACK of data, a challenge ACK, an application's TX request, a
// window that an ACK reopens, a kick, a pacing retry — through the
// inline edges of an engine whose goroutine never runs.
func TestNoOutputUnderFlowLock(t *testing.T) {
	nic := &lockCheckNIC{t: t}
	e := oneCoreEngine(nic)
	nic.e = e
	f := testFlow(e)
	ctx := NewContext(0, 1, 64)
	e.RegisterContext(ctx)
	write := func(n int) {
		f.Lock()
		f.TxBuf.Write(make([]byte, n))
		f.Unlock()
	}
	// A lone PSH segment steps the core: whatever else is queued goes too.
	poke := func() { e.Input(pshPkt(f, 4999, []byte("x"))) }

	e.Input(pshPkt(f, 5000, []byte("data"))) // ACK of data
	blind := pshPkt(f, 5004, nil)            // an ACK far below SND.UNA
	blind.Ack = f.SeqNo - 1<<25
	e.Input(blind) // challenge ACK
	write(64)
	e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: 64}) // application TX request
	f.Lock()
	f.Window = 0 // the peer closes its window
	f.Unlock()
	write(64)
	e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: 64}) // nothing can leave
	reopen := ackPkt(f, f.SeqNo-64)
	reopen.Flags |= protocol.FlagPSH
	e.Input(reopen) // the window update releases the held segment
	write(64)
	e.KickFlow(f)
	poke() // the kick
	f.RateBucket.SetRate(1)
	write(64)
	e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: 64}) // rate-limited: pending
	if len(e.cores[0].pending) != 1 {
		t.Fatal("an empty bucket did not hold the segment back")
	}
	f.RateBucket.SetRate(0)
	poke() // the pacing retry

	f.Lock()
	unsent := f.TxPending()
	f.Unlock()
	if unsent != 0 || len(e.cores[0].pending) != 0 {
		t.Fatalf("%d bytes unsent, %d flows pending: a path was not driven", unsent, len(e.cores[0].pending))
	}
	if nic.out < 8 {
		t.Fatalf("%d segments out, want at least 8", nic.out)
	}
}

// echoPair is two one-core engines joined back to back whose cores are
// never started: every step runs inline, on the goroutine that sends.
type echoPair struct {
	ea, eb     *Engine
	ctxA, ctxB *Context
	testFlowPair
	buf [64]byte
	evs [16]Event
}

func newEchoPair(tb testing.TB) *echoPair {
	na, nb := &wireNIC{}, &wireNIC{}
	p := &echoPair{ea: oneCoreEngine(na), eb: oneCoreEngine(nb)}
	na.peer, nb.peer = p.eb, p.ea
	p.wire(tb, p.ea, p.eb)
	p.ctxA, p.ctxB = NewContext(0, 1, 64), NewContext(0, 1, 64)
	p.ea.RegisterContext(p.ctxA)
	p.eb.RegisterContext(p.ctxB)
	return p
}

// hop sends msg on flow from and returns what flow to then holds, or
// nil if the payload was not yet acknowledged when the send returned.
func (p *echoPair) hop(e *Engine, ctx *Context, from, to *flowstate.Flow, toCtx *Context, msg []byte) []byte {
	from.Lock()
	from.TxBuf.Write(msg)
	from.Unlock()
	e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: from, Bytes: uint32(len(msg))})
	to.Lock()
	n := to.RxBuf.Read(p.buf[:])
	to.Unlock()
	ctx.PollEvents(p.evs[:])
	toCtx.PollEvents(p.evs[:])
	if from.TxBuf.Used() != 0 {
		return nil
	}
	return p.buf[:n]
}

// echo is one 64 B round trip, a to b and back.
func (p *echoPair) echo(msg []byte) bool {
	got := p.hop(p.ea, p.ctxA, p.a, p.b, p.ctxB, msg)
	return bytes.Equal(got, msg) && bytes.Equal(p.hop(p.eb, p.ctxB, p.b, p.a, p.ctxA, got), msg)
}

// TestEchoWithoutCoreGoroutines: with inline activation a request path
// needs no core goroutine at all. Two engines whose cores never started
// complete 1 000 echoes, each finished — delivered, echoed, both
// directions acknowledged — before its last send returns, and without
// allocating.
func TestEchoWithoutCoreGoroutines(t *testing.T) {
	p := newEchoPair(t)
	msg := bytes.Repeat([]byte{0xA5}, 64)
	for i := 0; i < 1000; i++ {
		if !p.echo(msg) {
			t.Fatalf("echo %d did not complete inline", i)
		}
	}
	for _, e := range []*Engine{p.ea, p.eb} {
		c := e.cores[0]
		if c.stats.InlineSteps.Load() < 2000 || c.stats.Blocks.Load() != 0 || e.hasWork(c) {
			t.Fatalf("inline steps %d, parks %d, work left %v", c.stats.InlineSteps.Load(), c.stats.Blocks.Load(), e.hasWork(c))
		}
	}
	if protocol.OwnershipChecked {
		return // race builds make sync.Pool drop items at random
	}
	if n := testing.AllocsPerRun(200, func() { p.echo(msg) }); n != 0 {
		t.Fatalf("inline echo: %v allocs, want 0", n)
	}
}

// TestInlineStepsSkipFaultHook: the core-step hook point runs only on a
// core's own goroutine, never inside a producer's inline step, so a
// stalled core can never stall an application's Send. Over 1 000 inline
// echoes on engines whose cores never started, it is not reached once.
func TestInlineStepsSkipFaultHook(t *testing.T) {
	p := newEchoPair(t)
	var steps atomic.Int64
	for _, e := range []*Engine{p.ea, p.eb} {
		e.SetFaultHook(func(at FaultPoint, _ int) {
			if at == FaultCoreStep {
				steps.Add(1)
			}
		})
	}
	msg := bytes.Repeat([]byte{0xA5}, 64)
	for i := 0; i < 1000; i++ {
		if !p.echo(msg) {
			t.Fatalf("echo %d did not complete inline", i)
		}
	}
	if n := steps.Load(); n != 0 {
		t.Fatalf("the core-step hook ran %d times inside inline steps", n)
	}
}

// BenchmarkInlineEcho is a 64 B echo between two engines with no core
// goroutines: the request path as a chain of calls, the cost lightweight
// activation leaves once the goroutine hand-offs are gone.
func BenchmarkInlineEcho(b *testing.B) {
	p := newEchoPair(b)
	msg := bytes.Repeat([]byte{0xA5}, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.echo(msg) {
			b.Fatal("echo did not complete inline")
		}
	}
}

// TestStalledCoreSendWaits: while a core is stalled its beat counter
// stops, a one-segment send aimed at it finds the run token held (the
// stall sleeps holding it) and counts a busy activation instead of
// running inline, and its bytes leave once the stall ends.
func TestStalledCoreSendWaits(t *testing.T) {
	nic := &lockedNIC{}
	e := oneCoreEngine(nic)
	c := e.cores[0]
	f := testFlow(e)
	ctx := NewContext(0, 1, 64)
	e.RegisterContext(ctx)
	f.Context = 0
	e.Start()
	defer e.Stop()
	waitFor(t, "core 0 beats", func() bool { return e.CoreBeat(0) > 0 })

	const stall = 300 * time.Millisecond
	stallCore(e, 0, stall)
	waitFor(t, "core 0 stall", func() bool {
		b := e.CoreBeat(0)
		time.Sleep(20 * time.Millisecond)
		return e.CoreBeat(0) == b && c.token.Load()
	})
	beat := e.CoreBeat(0)
	f.Lock()
	f.TxBuf.Write(make([]byte, 64))
	f.Unlock()
	if !e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: 64}) {
		t.Fatal("PushTxCmd refused")
	}
	if n, busy := c.stats.InlineSteps.Load(), c.stats.TokenBusy.Load(); n != 0 || busy != 1 {
		t.Fatalf("send to a stalled core: %d inline steps, %d busy; want 0 and 1", n, busy)
	}
	time.Sleep(50 * time.Millisecond)
	if got, sent := e.CoreBeat(0), nic.sent(); got != beat || sent != 0 {
		t.Fatalf("during the stall: beat %d -> %d, %d segments sent", beat, got, sent)
	}
	waitFor(t, "the send leaves after the stall", func() bool { return nic.sent() == 1 })
	if got := e.CoreBeat(0); got == beat {
		t.Fatal("core 0 beat did not resume after the stall")
	}
}
