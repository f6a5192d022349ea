package fastpath

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/shmring"
)

// stubNIC captures transmitted packets.
type stubNIC struct{ out []*protocol.Packet }

func (n *stubNIC) Output(p *protocol.Packet) { n.out = append(n.out, p) }

func testEngine() (*Engine, *stubNIC) {
	nic := &stubNIC{}
	e := NewEngine(nic, Config{
		LocalIP:  protocol.MakeIPv4(10, 0, 0, 1),
		LocalMAC: protocol.MACForIPv4(protocol.MakeIPv4(10, 0, 0, 1)),
		MaxCores: 2,
	})
	return e, nic
}

func testFlow(e *Engine) *flowstate.Flow {
	f := &flowstate.Flow{
		Opaque:    7,
		LocalIP:   e.cfg.LocalIP,
		LocalPort: 80,
		PeerIP:    protocol.MakeIPv4(10, 0, 0, 2),
		PeerPort:  5000,
		PeerMAC:   protocol.MACForIPv4(protocol.MakeIPv4(10, 0, 0, 2)),
		SeqNo:     1000,
		AckNo:     5000,
		Window:    64, // 64 KiB
		RxBuf:     shmring.NewPayloadBuffer(64 << 10),
		TxBuf:     shmring.NewPayloadBuffer(64 << 10),
	}
	e.Table.Insert(f)
	return f
}

// processRx is the receive stage applied to a batch of one packet.
func (e *Engine) processRx(c *core, pkt *protocol.Packet) {
	c.pktBatch[0] = pkt
	e.processRxBatch(c, c.pktBatch[:1])
}

func dataPkt(f *flowstate.Flow, seq uint32, payload []byte) *protocol.Packet {
	return &protocol.Packet{
		SrcIP: f.PeerIP, DstIP: f.LocalIP,
		SrcPort: f.PeerPort, DstPort: f.LocalPort,
		Flags: protocol.FlagACK, Seq: seq, Ack: f.SeqNo,
		Window: 64, Payload: payload, ECN: protocol.ECNECT0,
		HasTS: true, TSVal: 42,
	}
}

func ackPkt(f *flowstate.Flow, ack uint32) *protocol.Packet {
	return &protocol.Packet{
		SrcIP: f.PeerIP, DstIP: f.LocalIP,
		SrcPort: f.PeerPort, DstPort: f.LocalPort,
		Flags: protocol.FlagACK, Seq: f.AckNo, Ack: ack, Window: 64,
		ECN: protocol.ECNECT0,
	}
}

func TestRxInOrderDeposit(t *testing.T) {
	e, nic := testEngine()
	f := testFlow(e)
	ctx := NewContext(0, 2, 64)
	e.RegisterContext(ctx)
	f.Context = 0

	e.processRx(e.cores[0], dataPkt(f, 5000, []byte("hello")))
	if f.AckNo != 5005 {
		t.Fatalf("AckNo = %d, want 5005", f.AckNo)
	}
	buf := make([]byte, 16)
	if n := f.RxBuf.Read(buf); n != 5 || string(buf[:5]) != "hello" {
		t.Fatalf("RxBuf = %q", buf[:n])
	}
	// ACK generated with echoed timestamp.
	if len(nic.out) != 1 {
		t.Fatalf("packets out = %d", len(nic.out))
	}
	ack := nic.out[0]
	if !ack.Flags.Has(protocol.FlagACK) || ack.Ack != 5005 {
		t.Fatalf("ack = %+v", ack)
	}
	if !ack.HasTS || ack.TSEcr != 42 {
		t.Fatal("timestamp echo missing")
	}
	// Data event posted.
	var evs [8]Event
	if n := ctx.PollEvents(evs[:]); n != 1 || evs[0].Kind != EvData || evs[0].Bytes != 5 || evs[0].Opaque != 7 {
		t.Fatalf("events = %v (%d)", evs[:n], n)
	}
}

func TestRxDuplicateReAcks(t *testing.T) {
	e, nic := testEngine()
	f := testFlow(e)
	e.processRx(e.cores[0], dataPkt(f, 5000, []byte("abcd")))
	e.processRx(e.cores[0], dataPkt(f, 5000, []byte("abcd"))) // dup
	if f.AckNo != 5004 {
		t.Fatalf("AckNo = %d", f.AckNo)
	}
	if len(nic.out) != 2 || nic.out[1].Ack != 5004 {
		t.Fatal("duplicate should be re-acked")
	}
	if f.RxBuf.Used() != 4 {
		t.Fatal("duplicate must not deposit twice")
	}
}

func TestRxPartialOverlapTrims(t *testing.T) {
	e, _ := testEngine()
	f := testFlow(e)
	e.processRx(e.cores[0], dataPkt(f, 5000, []byte("abcd")))
	// Overlapping retransmission [5002, 5008).
	e.processRx(e.cores[0], dataPkt(f, 5002, []byte("cdefgh")))
	if f.AckNo != 5008 {
		t.Fatalf("AckNo = %d, want 5008", f.AckNo)
	}
	buf := make([]byte, 16)
	n := f.RxBuf.Read(buf)
	if string(buf[:n]) != "abcdefgh" {
		t.Fatalf("stream = %q", buf[:n])
	}
}

func TestRxOutOfOrderOneInterval(t *testing.T) {
	e, nic := testEngine()
	f := testFlow(e)
	ctx := NewContext(0, 2, 64)
	e.RegisterContext(ctx)

	// Gap: [5000,5004) missing; deliver [5004,5008).
	e.processRx(e.cores[0], dataPkt(f, 5004, []byte("BBBB")))
	if f.AckNo != 5000 || f.OooLen != 4 || f.OooStart != 5004 {
		t.Fatalf("ooo state: ack=%d start=%d len=%d", f.AckNo, f.OooStart, f.OooLen)
	}
	if nic.out[0].Ack != 5000 {
		t.Fatal("ooo must generate dup ack at gap")
	}
	// Extend contiguously [5008,5012).
	e.processRx(e.cores[0], dataPkt(f, 5008, []byte("CCCC")))
	if f.OooLen != 8 {
		t.Fatalf("interval should extend, len=%d", f.OooLen)
	}
	// Non-adjacent [5016,5020) dropped.
	e.processRx(e.cores[0], dataPkt(f, 5016, []byte("EEEE")))
	if f.OooLen != 8 {
		t.Fatalf("second interval must not be tracked, len=%d", f.OooLen)
	}
	if e.cores[0].stats.OooDropped.Load() != 1 {
		t.Fatal("non-adjacent OOO should count as dropped")
	}
	// Fill the gap: everything through 5012 delivered as one unit.
	e.processRx(e.cores[0], dataPkt(f, 5000, []byte("AAAA")))
	if f.AckNo != 5012 {
		t.Fatalf("after gap fill AckNo = %d, want 5012", f.AckNo)
	}
	if f.OooLen != 0 {
		t.Fatal("interval should reset after merge")
	}
	buf := make([]byte, 16)
	n := f.RxBuf.Read(buf)
	if string(buf[:n]) != "AAAABBBBCCCC" {
		t.Fatalf("stream = %q", buf[:n])
	}
}

func TestAckFreesTxBufferAndNotifies(t *testing.T) {
	e, _ := testEngine()
	f := testFlow(e)
	ctx := NewContext(0, 2, 64)
	e.RegisterContext(ctx)

	f.TxBuf.Write(make([]byte, 3000))
	e.transmitFlow(e.cores[0], f)
	if f.TxSent != 3000 {
		t.Fatalf("TxSent = %d", f.TxSent)
	}
	e.processRx(e.cores[0], ackPkt(f, 1000+1448))
	if f.TxSent != 3000-1448 {
		t.Fatalf("TxSent after ack = %d", f.TxSent)
	}
	if f.TxBuf.Used() != 3000-1448 {
		t.Fatalf("TxBuf used = %d", f.TxBuf.Used())
	}
	if f.CntAckB != 1448 {
		t.Fatalf("CntAckB = %d", f.CntAckB)
	}
	var evs [8]Event
	n := ctx.PollEvents(evs[:])
	if n != 1 || evs[n-1].Kind != EvTxAcked || evs[n-1].Bytes != 1448 {
		t.Fatalf("events = %v", evs[:n])
	}
}

// TestAckAfterRewindSkipsSentBytes: after a go-back-N rewind (here the
// slow path's retransmission timeout, with the peer's window closed so
// nothing is resent), an ACK for bytes sent before the rewind frees
// them and moves the send point past them. Clamped to what was sent
// since the rewind, it would free nothing: the sender's buffer would
// never drain, and its persist probes, each answered by that same ACK,
// would walk the stream a byte at a time until the live peer was
// declared dead. An ACK past anything ever sent is still clamped.
func TestAckAfterRewindSkipsSentBytes(t *testing.T) {
	e, _ := testEngine()
	f := testFlow(e)
	c := e.cores[0]
	f.TxBuf.Write(make([]byte, 3000))
	e.transmitFlow(c, f)
	f.Window = 0
	e.resetSender(f)
	if f.SeqNo != 1000 || f.TxSent != 0 || f.TxMax != 3000 {
		t.Fatalf("after rewind: SeqNo %d TxSent %d TxMax %d", f.SeqNo, f.TxSent, f.TxMax)
	}
	zeroWin := func(ack uint32) *protocol.Packet {
		p := ackPkt(f, ack)
		p.Window = 0
		return p
	}
	e.processRx(c, zeroWin(1000+2000))
	if f.SeqNo != 3000 || f.TxSent != 0 || f.TxMax != 1000 || f.TxBuf.Used() != 1000 || f.CntAckB != 2000 {
		t.Fatalf("ack of pre-rewind bytes: SeqNo %d TxSent %d TxMax %d used %d acked %d; want 3000 0 1000 1000 2000",
			f.SeqNo, f.TxSent, f.TxMax, f.TxBuf.Used(), f.CntAckB)
	}
	e.processRx(c, zeroWin(1000+5000)) // past anything sent: nothing in flight to clamp to
	if f.SeqNo != 3000 || f.TxBuf.Used() != 1000 || f.CntAckB != 2000 {
		t.Fatalf("ack past SND.MAX: SeqNo %d used %d acked %d; want 3000 1000 2000", f.SeqNo, f.TxBuf.Used(), f.CntAckB)
	}
}

func TestEcnEchoCountsMarkedBytes(t *testing.T) {
	e, _ := testEngine()
	f := testFlow(e)
	f.TxBuf.Write(make([]byte, 1448))
	e.transmitFlow(e.cores[0], f)
	ack := ackPkt(f, 1000+1448)
	ack.Flags |= protocol.FlagECE
	e.processRx(e.cores[0], ack)
	if f.CntEcnB != 1448 {
		t.Fatalf("CntEcnB = %d", f.CntEcnB)
	}
}

func TestDupAcksTriggerFastRecovery(t *testing.T) {
	e, nic := testEngine()
	f := testFlow(e)
	f.TxBuf.Write(make([]byte, 5000))
	e.transmitFlow(e.cores[0], f)
	sent := len(nic.out)
	if f.TxSent != 5000 {
		t.Fatalf("TxSent = %d", f.TxSent)
	}
	for i := 0; i < 3; i++ {
		e.processRx(e.cores[0], ackPkt(f, 1000)) // ack == una: duplicate
	}
	if f.CntFrexmits != 1 {
		t.Fatalf("frexmits = %d", f.CntFrexmits)
	}
	// Go-back-N: everything retransmitted.
	if len(nic.out) < sent+4 {
		t.Fatalf("expected retransmissions, out=%d (was %d)", len(nic.out), sent)
	}
	if f.TxSent != 5000 {
		t.Fatalf("after retransmit TxSent = %d", f.TxSent)
	}
}

func TestWindowUpdateNotCountedAsDupAck(t *testing.T) {
	e, _ := testEngine()
	f := testFlow(e)
	f.TxBuf.Write(make([]byte, 2000))
	e.transmitFlow(e.cores[0], f)
	for i := 0; i < 5; i++ {
		upd := ackPkt(f, 1000)
		upd.Window = uint16(40 + i) // changing window: an update, not a dup
		e.processRx(e.cores[0], upd)
	}
	if f.CntFrexmits != 0 {
		t.Fatal("window updates must not trigger fast recovery")
	}
	if f.Window != 44 {
		t.Fatalf("window = %d, want 44", f.Window)
	}
}

func TestTransmitHonorsPeerWindow(t *testing.T) {
	e, nic := testEngine()
	f := testFlow(e)
	f.Window = 2 // 2 KiB
	f.TxBuf.Write(make([]byte, 10000))
	e.transmitFlow(e.cores[0], f)
	if f.TxSent > 2048 {
		t.Fatalf("TxSent = %d exceeds 2KiB window", f.TxSent)
	}
	before := len(nic.out)
	// Window opens via ack.
	ack := ackPkt(f, 1000)
	ack.Ack = 1000 + f.TxSent
	ack.Window = 64
	e.processRx(e.cores[0], ack)
	if len(nic.out) <= before {
		t.Fatal("opened window should resume transmission")
	}
}

func TestTransmitHonorsRateBucket(t *testing.T) {
	e, nic := testEngine()
	f := testFlow(e)
	f.RateBucket.SetRate(1) // ~0: effectively no tokens
	if !f.TxBuf.Write(make([]byte, 30000)) {
		t.Fatal("tx buffer write failed")
	}
	e.transmitFlow(e.cores[0], f)
	if len(nic.out) > 1 {
		t.Fatalf("rate-limited flow sent %d packets", len(nic.out))
	}
	if len(e.cores[0].pending) != 1 {
		t.Fatal("flow should be parked for pacing retry")
	}
	// Unlimited rate: retry drains.
	f.RateBucket.SetRate(0)
	e.retryPending(e.cores[0])
	if f.TxPending() != 0 {
		t.Fatalf("pending after unlimited retry = %d", f.TxPending())
	}
}

func TestExceptionsForwarded(t *testing.T) {
	e, _ := testEngine()
	f := testFlow(e)
	syn := dataPkt(f, 5000, nil)
	syn.Flags = protocol.FlagSYN
	e.processRx(e.cores[0], syn)
	unknown := &protocol.Packet{
		SrcIP: protocol.MakeIPv4(9, 9, 9, 9), DstIP: e.cfg.LocalIP,
		SrcPort: 1, DstPort: 2, Flags: protocol.FlagACK,
	}
	e.processRx(e.cores[0], unknown)
	q, _ := e.Exceptions()
	if q.Len() != 2 {
		t.Fatalf("exceptions queued = %d", q.Len())
	}
	if e.cores[0].stats.Exceptions.Load() != 2 {
		t.Fatal("exception counter")
	}
}

func TestRxBufferFullDrops(t *testing.T) {
	e, nic := testEngine()
	f := testFlow(e)
	// Fill the rx buffer completely.
	f.RxBuf.Write(make([]byte, f.RxBuf.Size()))
	e.processRx(e.cores[0], dataPkt(f, 5000, []byte("xxxx")))
	if f.AckNo != 5000 {
		t.Fatal("full buffer must not advance ack")
	}
	if e.cores[0].stats.BufFullDrop.Load() != 1 {
		t.Fatal("drop not counted")
	}
	// Still acked (current ack number) so the sender learns the window.
	if len(nic.out) != 1 || nic.out[0].Window != 0 {
		t.Fatalf("expected zero-window ack, out=%v", nic.out)
	}
}

func TestContextQueuesAndWake(t *testing.T) {
	ctx := NewContext(0, 2, 4)
	if ctx.Cores() != 2 {
		t.Fatal("cores")
	}
	// Fill core-0 queue to capacity.
	for i := 0; i < 4; i++ {
		if !ctx.PostEvent(0, Event{Kind: EvData, Bytes: uint32(i)}) {
			t.Fatalf("post %d failed", i)
		}
	}
	if ctx.PostEvent(0, Event{Kind: EvData}) {
		t.Fatal("full queue should reject")
	}
	if ctx.DroppedEvents.Load() != 1 {
		t.Fatal("drop not counted")
	}
	var evs [16]Event
	if n := ctx.PollEvents(evs[:]); n != 4 {
		t.Fatalf("polled %d", n)
	}
	// Wake semantics: only when sleeping.
	ch := ctx.Sleep()
	ctx.PostEvent(1, Event{Kind: EvData})
	select {
	case <-ch:
	default:
		t.Fatal("sleeping context should be woken")
	}
	ctx.Awake(ch)
}

// TestWakeBroadcast: one Wake must release every blocked waiter, not
// just one. Regression test for the lost wakeup with several
// per-connection readers sharing one context: a single-token wake let
// one reader drain the event queue for everyone while the rest slept
// until their timeouts.
func TestWakeBroadcast(t *testing.T) {
	ctx := NewContext(0, 1, 8)
	ch1 := ctx.Sleep()
	ch2 := ctx.Sleep()
	ctx.PostEvent(0, Event{Kind: EvData})
	for i, ch := range []<-chan struct{}{ch1, ch2} {
		select {
		case <-ch:
		case <-time.After(time.Second):
			t.Fatalf("waiter %d not woken", i)
		}
	}
	// A waiter that never consumed its token hands the channel back with
	// the token still in it; the next sleeper must not inherit it.
	ch4 := ctx.Sleep()
	ctx.PostEvent(0, Event{Kind: EvData})
	ctx.Awake(ch4)
	ctx.Awake(ch1)
	ctx.Awake(ch2)
	for i := 0; i < 3; i++ {
		ch := ctx.Sleep()
		defer ctx.Awake(ch)
		select {
		case <-ch:
			t.Fatal("woken without a Wake")
		default:
		}
	}
}

func TestSetActiveCoresClamps(t *testing.T) {
	e, _ := testEngine()
	e.SetActiveCores(0)
	if e.ActiveCores() != 1 {
		t.Fatal("clamp low")
	}
	e.SetActiveCores(99)
	if e.ActiveCores() != 2 {
		t.Fatal("clamp high")
	}
}

func TestInputSteersByRSS(t *testing.T) {
	e, _ := testEngine()
	e.SetActiveCores(2)
	f := testFlow(e)
	pkt := dataPkt(f, 5000, []byte("x"))
	want := e.RSS.CoreForPacket(pkt)
	e.Input(pkt)
	if e.cores[want].rxRing.Len() != 1 {
		t.Fatalf("packet not on core %d ring", want)
	}
}

func TestInputDropsOnFullRing(t *testing.T) {
	nic := &stubNIC{}
	e := NewEngine(nic, Config{LocalIP: 1, MaxCores: 1, RxRingSize: 2})
	f := testFlow(e)
	for i := 0; i < 5; i++ {
		e.Input(dataPkt(f, 5000, []byte("x")))
	}
	if e.cores[0].stats.RxDrops.Load() != 3 {
		t.Fatalf("drops = %d", e.cores[0].stats.RxDrops.Load())
	}
}

// TestEngineLifecycle runs real cores: packets delivered via Input are
// processed by the core goroutines, idle cores block, and Input wakes
// them.
func TestEngineLifecycle(t *testing.T) {
	nic := &syncNIC{}
	e := NewEngine(nic, Config{
		LocalIP:  protocol.MakeIPv4(10, 0, 0, 1),
		LocalMAC: protocol.MACForIPv4(protocol.MakeIPv4(10, 0, 0, 1)),
		MaxCores: 2,
	})
	f := testFlow(e)
	ctx := NewContext(0, 2, 256)
	e.RegisterContext(ctx)
	f.Context = 0
	e.Start()
	defer e.Stop()

	// Deliver data through the running engine.
	e.Input(dataPkt(f, 5000, []byte("engine")))
	deadline := time.Now().Add(5 * time.Second)
	for nic.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if nic.count() == 0 {
		t.Fatal("running core never generated the ack")
	}
	// A core that has done one packet's work holds a few microseconds of
	// polling credit, and one that has done none holds none: both park,
	// and a late packet rings the doorbell.
	time.Sleep(20 * time.Millisecond)
	for i, c := range e.cores {
		if c.stats.Blocks.Load() == 0 || !c.asleep.Load() {
			t.Fatalf("core %d: idle with no credit but not parked (parks %d)", i, c.stats.Blocks.Load())
		}
	}
	before := nic.count()
	e.Input(dataPkt(f, 5006, []byte("wake")))
	deadline = time.Now().Add(5 * time.Second)
	for nic.count() == before && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if nic.count() == before {
		t.Fatal("blocked core never woke for new input")
	}
	// TX via context command path on the running engine.
	f.Lock()
	f.TxBuf.Write([]byte("outbound"))
	f.Unlock()
	if !e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: 8}) {
		t.Fatal("tx cmd rejected")
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		f.Lock()
		sent := f.TxSent
		f.Unlock()
		if sent == 8 {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("tx command never transmitted")
}

// syncNIC is a concurrency-safe stub NIC for lifecycle tests.
type syncNIC struct {
	mu  sync.Mutex
	out []*protocol.Packet
}

func (n *syncNIC) Output(p *protocol.Packet) {
	n.mu.Lock()
	n.out = append(n.out, p)
	n.mu.Unlock()
}

func (n *syncNIC) count() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.out)
}

// hammerRing runs produce on `producers` goroutines while the caller's
// goroutine drains with take (which returns how many items it removed),
// and returns the total drained once every producer has returned and
// the ring is empty — or once it exceeds limit, which only a ring whose
// indices were corrupted by overlapping producers can do.
func hammerRing(producers int, limit uint64, produce func(p int), take func() int) (got uint64) {
	var wg sync.WaitGroup
	start, done := make(chan struct{}), make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			produce(p)
		}(p)
	}
	close(start)
	go func() { wg.Wait(); close(done) }()
	for producing := true; producing; {
		select {
		case <-done:
			producing = false
		default:
		}
		for n := take(); n > 0 && got <= limit; n = take() {
			got += uint64(n)
		}
		// Yield rather than spin on an empty ring: with two processors a
		// spinning consumer leaves the producers one to share, and
		// producers that never run side by side cannot collide.
		runtime.Gosched()
	}
	return got
}

// TestPostEventManyProducers: a context's core-0 event ring is written
// by fast-path core 0 and by every slow-path goroutine (accept,
// connect, close and abort notifications all post to index 0), so every
// post that reports true must reach the application — on a
// single-producer ring two concurrent posts share one slot and one
// event vanishes.
func TestPostEventManyProducers(t *testing.T) {
	const producers, perProducer = 4, 10000
	ctx := NewContext(0, 1, 1024)
	var posted atomic.Uint64
	var evs [64]Event
	got := hammerRing(producers, producers*perProducer, func(int) {
		for i := 0; i < perProducer; i++ {
			if ctx.PostEvent(0, Event{Kind: EvData}) {
				posted.Add(1)
			}
		}
	}, func() int { return ctx.PollEvents(evs[:]) })
	if want := posted.Load(); got != want {
		t.Fatalf("received %d events, %d posts returned true", got, want)
	}
}

// TestExceptionQueueManyCores is the same property for the engine's
// exception queue, which every active core's processRx feeds: each
// exception not counted as an ExcqDrop reaches the slow path.
func TestExceptionQueueManyCores(t *testing.T) {
	const perCore = 10000
	e := NewEngine(&stubNIC{}, Config{LocalIP: protocol.MakeIPv4(10, 0, 0, 1), MaxCores: 4})
	q, _ := e.Exceptions()
	got := hammerRing(len(e.cores), uint64(len(e.cores))*perCore, func(p int) {
		pkt := &protocol.Packet{Flags: protocol.FlagACK}
		for i := 0; i < perCore; i++ {
			e.toSlowPath(e.cores[p], pkt)
		}
	}, func() int {
		if _, ok := q.Dequeue(); ok {
			return 1
		}
		return 0
	})
	var sent, dropped uint64
	for _, c := range e.cores {
		sent += c.stats.Exceptions.Load()
		dropped += c.stats.ExcqDrop.Load()
	}
	if sent != uint64(len(e.cores))*perCore || got != sent-dropped {
		t.Fatalf("dequeued %d exceptions; %d forwarded - %d dropped", got, sent, dropped)
	}
}
