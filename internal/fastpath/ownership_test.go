package fastpath

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/shmring"
)

// wireNIC joins two engines back to back: Output hands the packet — and
// its ownership — straight to the peer's Input.
type wireNIC struct{ peer *Engine }

func (n *wireNIC) Output(p *protocol.Packet) { n.peer.Input(p) }

// wiredPair is two started single-core engines joined by wireNICs, one
// established flow between them (a on ea, b on eb) and an application
// context on each side. Its methods play the two applications without
// allocating.
type wiredPair struct {
	t          *testing.T
	ea, eb     *Engine
	ctxA, ctxB *Context
	testFlowPair
	evs []Event
	buf []byte
}

func newWiredPair(t *testing.T, bufSize int) *wiredPair {
	t.Helper()
	na, nb := &wireNIC{}, &wireNIC{}
	p := &wiredPair{
		t: t, ea: oneCoreEngine(na), eb: oneCoreEngine(nb),
		evs: make([]Event, 64), buf: make([]byte, bufSize),
	}
	na.peer, nb.peer = p.eb, p.ea
	p.wire(t, p.ea, p.eb)
	for _, f := range []*flowstate.Flow{p.a, p.b} {
		f.RxBuf, f.TxBuf = shmring.NewPayloadBuffer(bufSize), shmring.NewPayloadBuffer(bufSize)
	}
	p.ctxA, p.ctxB = NewContext(0, 1, 1024), NewContext(0, 1, 1024)
	p.ea.RegisterContext(p.ctxA)
	p.eb.RegisterContext(p.ctxB)
	p.ea.Start()
	p.eb.Start()
	t.Cleanup(func() { p.ea.Stop(); p.eb.Stop() })
	return p
}

// send appends data to f's transmit buffer and rings its engine.
func (p *wiredPair) send(e *Engine, ctx *Context, f *flowstate.Flow, data []byte) {
	f.Lock()
	ok := f.TxBuf.Write(data)
	f.Unlock()
	if !ok || !e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: uint32(len(data))}) {
		p.t.Fatal("send refused")
	}
}

// await yields until cond holds.
func (p *wiredPair) await(what string, cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			p.t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// recv reads exactly n bytes from f's receive buffer.
func (p *wiredPair) recv(ctx *Context, f *flowstate.Flow, n int) []byte {
	got := 0
	p.await("payload", func() bool {
		ctx.PollEvents(p.evs)
		f.Lock()
		got += f.RxBuf.Read(p.buf[got:n])
		f.Unlock()
		return got == n
	})
	return p.buf[:n]
}

// acked waits until everything f sent has been acknowledged, so the
// next round starts from an idle flow.
func (p *wiredPair) acked(ctx *Context, f *flowstate.Flow) {
	p.await("acknowledgement", func() bool {
		ctx.PollEvents(p.evs)
		return f.TxBuf.Used() == 0
	})
}

// TestFastPathSteadyStateAllocs is the paper's "the fast path never
// allocates" as a test: once the pool is warm, neither a small echo nor
// a bulk write costs a single heap allocation anywhere in the process —
// segments and ACKs come from the packet pool and go back to it.
func TestFastPathSteadyStateAllocs(t *testing.T) {
	if protocol.OwnershipChecked {
		t.Skip("race builds make sync.Pool drop items at random")
	}
	p := newWiredPair(t, 256<<10)
	msg := bytes.Repeat([]byte{0xA5}, 64)
	echo := func() {
		p.send(p.ea, p.ctxA, p.a, msg)
		p.send(p.eb, p.ctxB, p.b, p.recv(p.ctxB, p.b, len(msg)))
		if got := p.recv(p.ctxA, p.a, len(msg)); !bytes.Equal(got, msg) {
			t.Fatalf("echo returned % x", got[:8])
		}
		p.acked(p.ctxB, p.b)
	}
	bulk := bytes.Repeat([]byte{0x5A}, 64<<10)
	write := func() {
		p.send(p.ea, p.ctxA, p.a, bulk)
		if got := p.recv(p.ctxB, p.b, len(bulk)); !bytes.Equal(got, bulk) {
			t.Fatal("bulk write corrupted")
		}
		p.acked(p.ctxA, p.a)
	}
	for i := 0; i < 50; i++ { // warm the pool, the rings and the park timers
		echo()
		write()
	}
	if n := testing.AllocsPerRun(200, echo); n != 0 {
		t.Errorf("64 B echo round trip: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(50, write); n != 0 {
		t.Errorf("64 KiB one-way write: %v allocs, want 0", n)
	}
}

// TestReleaseForeignPacketIsNoop: tests and the benchmark's probes build
// literal packets, share one payload slice between them and send the
// same packet again. processRx consumes such a packet like any other —
// and its Release must leave every byte alone.
func TestReleaseForeignPacketIsNoop(t *testing.T) {
	e := oneCoreEngine(releaseNIC{})
	c := e.cores[0]
	f := testFlow(e)
	shared := []byte("shared between every packet of the batch")
	p1, p2 := dataPkt(f, 5000, shared), dataPkt(f, 5000+uint32(len(shared)), shared)
	want := p1.Clone()

	e.processRx(c, p1)
	e.processRx(c, p2)
	p1.Release() // and again by hand: still nobody's to recycle
	if q := protocol.NewPacket(); len(q.AllocPayload(8)) == 8 {
		copy(q.Payload, "scribble") // whatever the pool hands out next is not p1
		q.Release()
	}
	if p1.Seq != want.Seq || p1.Flags != want.Flags || p1.TSVal != want.TSVal || !bytes.Equal(p1.Payload, want.Payload) {
		t.Fatalf("literal packet changed by processRx + Release: %v payload %q", p1, p1.Payload)
	}
	if &p1.Payload[0] != &shared[0] || &p2.Payload[0] != &shared[0] {
		t.Fatal("shared payload slice was replaced")
	}
	if got := int(f.AckNo - 5000); got != 2*len(shared) {
		t.Fatalf("deposited %d bytes, want %d", got, 2*len(shared))
	}
	e.processRx(c, p1) // re-sent: a duplicate, re-acked, not a use-after-release
	e.Input(p1)
	if int(f.AckNo-5000) != 2*len(shared) {
		t.Fatal("re-sent duplicate advanced the stream")
	}
}

// TestBatchClockRTT pins what the batch clock does to RTT estimation. A
// segment is stamped (TSVal) from the sending core's batch clock and its
// echo (TSEcr) is compared with the batch clock of whichever core
// processes the ACK; each is stale by under one loop iteration, so the
// sample is off by at most one batch duration either way — and a core
// whose iteration began before the stamping core's never produces a
// negative sample wrapped into a 71-minute one.
func TestBatchClockRTT(t *testing.T) {
	const (
		batch   = 64 * time.Microsecond // a long iteration: 64 MSS segments
		trueRTT = 500 * time.Microsecond
		t0      = int64(3 * time.Second)
	)
	for _, tc := range []struct {
		name            string
		sendLag, ackLag time.Duration // how stale each core's clock is when it acts
	}{
		{"fresh clocks", 0, 0},
		{"stamped late in its batch", batch - 1, 0},
		{"acked late in its batch", 0, batch - 1},
		{"both stale", batch / 2, batch / 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, nic := testEngine()
			tx, rx := e.cores[0], e.cores[1]
			f := testFlow(e)
			f.TxBuf.Write(make([]byte, 100))
			// The segment leaves at t0; its core read the clock sendLag ago.
			tx.now = t0 - int64(tc.sendLag)
			e.transmitFlow(tx, f)
			seg := nic.out[0]
			// The ACK is processed trueRTT later by a core that read the
			// clock ackLag before that.
			rx.now = t0 + int64(trueRTT) - int64(tc.ackLag)
			ack := ackPkt(f, seg.Seq+100)
			ack.HasTS, ack.TSEcr = true, seg.TSVal
			e.processRx(rx, ack)
			errUs := int64(f.RTTEst) - trueRTT.Microseconds()
			if f.RTTEst == 0 || errUs > batch.Microseconds() || errUs < -batch.Microseconds() {
				t.Fatalf("RTTEst %d µs, want %d ± %d", f.RTTEst, trueRTT.Microseconds(), batch.Microseconds())
			}
		})
	}

	t.Run("ack core's clock behind the stamp", func(t *testing.T) {
		e, nic := testEngine()
		tx, rx := e.cores[0], e.cores[1]
		f := testFlow(e)
		f.RTTEst, f.RTTVarEst = 400, 50
		f.TxBuf.Write(make([]byte, 100))
		tx.now = t0
		e.transmitFlow(tx, f)
		// The other core was descheduled mid-iteration: its batch clock
		// predates the stamp it is about to be shown.
		rx.now = t0 - int64(30*time.Microsecond)
		ack := ackPkt(f, nic.out[0].Seq+100)
		ack.HasTS, ack.TSEcr = true, nic.out[0].TSVal
		e.processRx(rx, ack)
		if f.TxSent != 0 {
			t.Fatal("ACK not applied")
		}
		if f.RTTEst != 400 || f.RTTVarEst != 50 {
			t.Fatalf("negative sample moved the estimator: RTTEst %d RTTVar %d", f.RTTEst, f.RTTVarEst)
		}
	})
}
