package slowpath

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/congestion"
	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/shmring"
)

// wireNIC records what a rig transmits, for the tests that assert on
// segments; nobody answers.
type wireNIC struct {
	mu   sync.Mutex
	pkts []*protocol.Packet
}

func (n *wireNIC) Output(p *protocol.Packet) {
	n.mu.Lock()
	n.pkts = append(n.pkts, p.Clone())
	n.mu.Unlock()
}

// take returns, and forgets, the segments sent so far that match.
func (n *wireNIC) take(match func(*protocol.Packet) bool) []*protocol.Packet {
	n.mu.Lock()
	defer n.mu.Unlock()
	var got []*protocol.Packet
	for _, p := range n.pkts {
		if match(p) {
			got = append(got, p)
		}
	}
	n.pkts = n.pkts[:0]
	return got
}

// newTickRig builds an engine and slow path that are never started, so a
// test (or benchmark) owns the clock: it calls controlTick — or the whole
// event-loop tick — with whatever "now" it likes.
func newTickRig(cfg Config) (*fastpath.Engine, *Slowpath) {
	eng, sp, _ := newWireRig(cfg)
	return eng, sp
}

// newWireRig is newTickRig plus the NIC the rig transmits into and the
// application context 0 its events go to.
func newWireRig(cfg Config) (*fastpath.Engine, *Slowpath, *wireNIC) {
	ip := protocol.MakeIPv4(10, 0, 0, 1)
	nic := &wireNIC{}
	eng := fastpath.NewEngine(nic, fastpath.Config{LocalIP: ip, LocalMAC: protocol.MACForIPv4(ip), MaxCores: 1})
	eng.RegisterContext(fastpath.NewContext(0, 1, 256))
	cfg.DisableCoreScaling = true
	return eng, New(eng, cfg), nic
}

// nextEvent takes the next event a never-started rig posted to context
// 0, which the handlers and ticks have already done by the time they
// return.
func nextEvent(t *testing.T, eng *fastpath.Engine) fastpath.Event {
	t.Helper()
	var evs [1]fastpath.Event
	if eng.ContextByID(0).PollEvents(evs[:]) == 0 {
		t.Fatal("no event posted")
	}
	return evs[0]
}

// rigFlow installs the i-th established, silent flow.
func rigFlow(eng *fastpath.Engine, sp *Slowpath, i int, now int64) *flowstate.Flow {
	// (peer ip, peer port) = i's high and low 16 bits.
	peer := protocol.MakeIPv4(10, 1, byte(i>>24), byte(i>>16))
	f := &flowstate.Flow{
		LocalIP: eng.Config().LocalIP, LocalPort: 80,
		PeerIP: peer, PeerPort: uint16(i), PeerMAC: protocol.MACForIPv4(peer),
		SeqNo: 1000, AckNo: 5000, Window: 64,
		RxBuf: shmring.NewPayloadBuffer(1 << 10),
		TxBuf: shmring.NewPayloadBuffer(1 << 10),
	}
	f.Touch(now)
	sp.mu.Lock()
	sp.adoptFlow(f, sp.cfg.NewController(), f.SeqNo, now)
	sp.mu.Unlock()
	eng.Table.Insert(f)
	return f
}

// tickClock advances a synthetic engine clock one control interval per
// tick.
type tickClock struct {
	sp  *Slowpath
	now int64
}

func (c *tickClock) tick(n int) {
	for i := 0; i < n; i++ {
		c.now += c.sp.cfg.ControlInterval.Nanoseconds()
		c.sp.controlTick(c.now)
	}
}

// run advances the clock by d, running the whole event-loop tick once
// per control interval, and reports whether until came true on the way
// (it is checked after every tick; nil never does).
func (c *tickClock) run(d time.Duration, until func() bool) bool {
	for end := c.now + d.Nanoseconds(); c.now < end; {
		c.now += c.sp.cfg.ControlInterval.Nanoseconds()
		c.sp.tick(c.now)
		if until != nil && until() {
			return true
		}
	}
	return false
}

func mustInvariant(t testing.TB, sp *Slowpath) {
	t.Helper()
	if err := sp.CheckControlInvariant(); err != nil {
		t.Fatalf("control invariant: %v", err)
	}
}

// parkAll ticks until everything that can park has.
func parkAll(t testing.TB, c *tickClock, wantParked int) {
	t.Helper()
	for i := 0; i < 400; i++ {
		c.tick(1)
		if _, parked := c.sp.ControlSet(); parked == wantParked {
			return
		}
	}
	a, p := c.sp.ControlSet()
	t.Fatalf("after 400 ticks: %d active, %d parked, want %d parked", a, p, wantParked)
}

// TestSilentFlowParksAndTransmitResumesIt walks one flow round the whole
// cycle: silent → parked (flag up, off the active list) → the fast path
// sees bytes to send → activation ring → active again on the next tick →
// quiet again → parked again.
func TestSilentFlowParksAndTransmitResumesIt(t *testing.T) {
	eng, sp := newTickRig(Config{})
	clk := &tickClock{sp: sp}
	f := rigFlow(eng, sp, 1, 0)
	mustInvariant(t, sp)

	parkAll(t, clk, 1)
	if !f.Parked {
		t.Fatal("flow parked without its flag")
	}
	mustInvariant(t, sp)

	// The application writes; the fast path's transmit is the edge.
	f.Lock()
	f.TxBuf.Write(make([]byte, 200))
	f.Unlock()
	eng.KickFlow(f)
	eng.Start() // transmit runs on the owning core
	defer eng.Stop()
	waitCond(t, "activation", time.Second, func() bool { return eng.ActivationsLen() == 1 })
	mustInvariant(t, sp) // parked entry + cleared flag + ring entry is a legal state

	clk.tick(1)
	if a, p := sp.ControlSet(); a != 1 || p != 0 {
		t.Fatalf("after resume: %d active, %d parked", a, p)
	}
	if got := sp.Counters().FlowActivations; got != 1 {
		t.Fatalf("FlowActivations = %d", got)
	}
	mustInvariant(t, sp)

	// In flight: quiet ticks must not park it (and stay short of the
	// 10ms RTO floor, which would rewind under the scripted ack below).
	clk.tick(parkQuietTicks)
	if a, _ := sp.ControlSet(); a != 1 {
		t.Fatal("flow with unacknowledged bytes was parked")
	}
	// The peer acks everything; a few quiet ticks later it parks again.
	f.Lock()
	ack := f.SeqNo
	f.Unlock()
	eng.Input(&protocol.Packet{
		SrcIP: f.PeerIP, DstIP: f.LocalIP, SrcPort: f.PeerPort, DstPort: f.LocalPort,
		Flags: protocol.FlagACK, Seq: 5000, Ack: ack, Window: 64,
	})
	waitCond(t, "ack processed", time.Second, func() bool {
		f.Lock()
		defer f.Unlock()
		return f.TxSent == 0
	})
	parkAll(t, clk, 1)
	mustInvariant(t, sp)
}

// TestParkedFlowIsNeverTouched holds a parked flow's spinlock across 100
// ticks. A tick that locked, read or copied parked flows would spin on
// it forever.
func TestParkedFlowIsNeverTouched(t *testing.T) {
	eng, sp := newTickRig(Config{})
	clk := &tickClock{sp: sp}
	parked := rigFlow(eng, sp, 1, 0)
	busy := rigFlow(eng, sp, 2, 0)
	busy.TxSent, busy.SeqNo = 100, 1100 // in flight: stays active
	parkAll(t, clk, 1)

	parked.Lock()
	done := make(chan struct{})
	go func() {
		clk.tick(100)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("control tick stalled on a parked flow's spinlock")
	}
	parked.Unlock()
	if a, p := sp.ControlSet(); a != 1 || p != 1 {
		t.Fatalf("%d active, %d parked", a, p)
	}
}

// TestSteadyStateTickAllocatesNothing pins the tick at 0 allocs with
// parked flows present and active flows being serviced.
func TestSteadyStateTickAllocatesNothing(t *testing.T) {
	_, sp, clk, step := benchRig(t, 512)
	allocs := testing.AllocsPerRun(200, func() { step(); clk.tick(1) })
	if allocs != 0 {
		t.Fatalf("steady-state tick: %v allocs", allocs)
	}
	if a, p := sp.ControlSet(); a != 2 || p != 512 {
		t.Fatalf("%d active, %d parked", a, p)
	}
}

// benchRig is 2 active flows — acks arriving every interval — over idle
// parked ones. step feeds the active flows one interval's feedback.
func benchRig(t testing.TB, idle int) (*fastpath.Engine, *Slowpath, *tickClock, func()) {
	eng, sp := newTickRig(Config{})
	clk := &tickClock{sp: sp}
	for i := 0; i < idle; i++ {
		rigFlow(eng, sp, i, 0)
	}
	parkAll(t, clk, idle)
	busy := []*flowstate.Flow{rigFlow(eng, sp, idle, clk.now), rigFlow(eng, sp, idle+1, clk.now)}
	for _, f := range busy {
		f.TxSent = 1448
		f.SeqNo += 1448
	}
	step := func() {
		for _, f := range busy {
			f.Lock()
			f.CntAckB += 1448 // one segment acked, the next one sent
			f.SeqNo += 1448
			f.RTTEst = 50
			f.Unlock()
		}
	}
	for i := 0; i < 32; i++ { // settle: slices grown, controllers past slow start's first steps
		step()
		clk.tick(1)
	}
	return eng, sp, clk, step
}

// BenchmarkControlTick is ROADMAP item 5's "tick µs vs live flows",
// measured: the tick's cost with 2 active flows must not depend on how
// many idle ones are established.
func BenchmarkControlTick(b *testing.B) {
	for _, idle := range []int{0, 2048, 65536} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			_, sp, clk, step := benchRig(b, idle)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
				clk.tick(1)
			}
			b.StopTimer()
			if a, p := sp.ControlSet(); a != 2 || p != idle {
				b.Fatalf("%d active, %d parked", a, p)
			}
		})
	}
}

// BenchmarkSlowTick times the whole event-loop tick over TIME_WAIT
// tuples and half-open handshakes whose deadlines are a year off: a tick
// that pops due deadlines only costs the same whatever those tables hold.
func BenchmarkSlowTick(b *testing.B) {
	for _, n := range []struct{ tw, half int }{{0, 0}, {16384, 4096}} {
		b.Run(fmt.Sprintf("timewait=%d,halfopen=%d", n.tw, n.half), func(b *testing.B) {
			const day = 24 * time.Hour
			eng, sp := newTickRig(Config{HandshakeRTO: 365 * day, CoreTimeout: -1})
			local := eng.Config().LocalIP
			far := eng.NowNanos() + (365 * day).Nanoseconds()
			for i := 0; i < n.tw; i++ {
				eng.TimeWait.Insert(&flowstate.TimeWaitEntry{Expiry: far, Key: protocol.FlowKey{
					LocalIP: local, LocalPort: 80, RemoteIP: protocol.MakeIPv4(10, 2, byte(i>>8), byte(i)), RemotePort: 4000,
				}})
			}
			for i := 0; i < n.half; i++ {
				if _, err := sp.Connect(protocol.MakeIPv4(10, 3, byte(i>>8), byte(i)), 80, 0, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			clk := &tickClock{sp: sp, now: eng.NowNanos()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clk.now += sp.cfg.ControlInterval.Nanoseconds()
				sp.tick(clk.now)
			}
			b.StopTimer()
			if tw, half := sp.TimeWaitCount(), sp.HalfOpenCount(); tw != n.tw || half != n.half {
				b.Fatalf("%d TIME_WAIT tuples and %d half-opens left, want %d and %d", tw, half, n.tw, n.half)
			}
		})
	}
}

// TestParkResumeMatchesEveryTickSweep drives two identical controllers
// with a burst / 200ms silence / burst script. One entry is visited at
// every interval for the whole script — the retired sweep's behaviour —
// and the other is left to park and resume. The rates they write must
// agree at every tick where both are visited, the parked one must have
// stopped exactly where the visited one ends up, and the second burst
// must follow the same trajectory.
func TestParkResumeMatchesEveryTickSweep(t *testing.T) {
	timely := func() congestion.RateController {
		cfg := congestion.DefaultConfig(40e9)
		cfg.InitRate = 125e6
		return congestion.NewTIMELY(cfg)
	}
	for _, tc := range []struct {
		name string
		ctrl func() congestion.RateController
		ecn  bool // marks in the first burst: the controller leaves slow start
	}{
		{"dctcp-slowstart", nil, false},
		{"dctcp-avoidance", nil, true},
		{"timely", timely, false},
	} {
		t.Run(tc.name, func(t *testing.T) { parkResumeScript(t, tc.ctrl, tc.ecn) })
	}
}

func parkResumeScript(t *testing.T, ctrl func() congestion.RateController, ecn bool) {
	const burst, silence = 40, 200
	engA, spA := newTickRig(Config{NewController: ctrl})
	engB, spB := newTickRig(Config{NewController: ctrl})
	fa, fb := rigFlow(engA, spA, 1, 0), rigFlow(engB, spB, 1, 0)
	clkA, clkB := &tickClock{sp: spA}, &tickClock{sp: spB}

	feed := func(f *flowstate.Flow, i int) {
		f.Lock()
		f.CntAckB += uint32(20000 + 500*(i%7))
		if ecn && i%5 == 0 {
			f.CntEcnB += 3000
		}
		f.SeqNo += 20000
		f.TxSent = 1448
		f.RTTEst = 80
		f.Unlock()
	}
	quiesce := func(f *flowstate.Flow) {
		f.Lock()
		f.TxSent = 0
		f.Unlock()
	}
	pinActive := func() { // A never parks: it is the every-tick reference
		spA.mu.Lock()
		spA.cc[fa].quiet = 0
		spA.mu.Unlock()
	}
	same := func(phase string, i int) {
		t.Helper()
		ra, rb := fa.RateBucket.Rate(), fb.RateBucket.Rate()
		if math.Abs(ra-rb) > 1e-9*math.Max(ra, rb) {
			t.Fatalf("%s tick %d: every-tick sweep rate %.9g, park/resume rate %.9g", phase, i, ra, rb)
		}
	}
	step := func(phase string, i int, busy bool) {
		t.Helper()
		if busy {
			feed(fa, i)
			feed(fb, i)
		}
		pinActive()
		clkA.tick(1)
		clkB.tick(1)
		if _, parked := spB.ControlSet(); parked == 0 {
			same(phase, i)
		}
	}

	for i := 0; i < burst; i++ {
		step("burst 1", i, true)
	}
	quiesce(fa)
	quiesce(fb)
	parkedAt := -1
	for i := 0; i < silence; i++ {
		step("silence", i, false)
		if _, p := spB.ControlSet(); p == 1 && parkedAt < 0 {
			parkedAt = i
		}
	}
	if parkedAt < 0 {
		t.Fatal("flow B never parked during 200ms of silence")
	}
	if _, p := spA.ControlSet(); p != 0 {
		t.Fatal("reference flow A parked; the comparison is void")
	}
	// B parked at its controller's fixed point, so A — visited on every
	// tick since — must not have moved either.
	same("end of silence", silence)

	// Second burst: the fast path's transmit edge wakes B.
	fb.Lock()
	if !fb.Parked {
		t.Fatal("B's flag is down while parked")
	}
	engB.ActivateFlow(fb)
	fb.Unlock()
	for i := 0; i < burst; i++ {
		step("burst 2", i, true)
	}
	t.Logf("parked after %d silent ticks; rates equal throughout", parkedAt)
}

// TestKeepaliveFIFOOrdersDeadlines checks the FIFO-as-timer: deadlines
// never decrease along the queue, an expired head whose flow heard from
// its peer is requeued with a fresh deadline, and one that did not is
// unparked with its probe train started.
func TestKeepaliveFIFOOrdersDeadlines(t *testing.T) {
	const ka = 100 * time.Millisecond
	eng, sp := newTickRig(Config{KeepaliveTime: ka, KeepaliveInterval: 10 * time.Millisecond})
	clk := &tickClock{sp: sp}
	silent := rigFlow(eng, sp, 1, 0)
	chatty := rigFlow(eng, sp, 2, 0)
	parkAll(t, clk, 2)
	mustInvariant(t, sp)

	// chatty receives a segment at 60ms (a pure receiver stays parked).
	clk.tick(60 - int(clk.now/1e6))
	chatty.Touch(clk.now)
	// At 100ms both heads are due for a look: silent has been idle for
	// KeepaliveTime, chatty has not.
	clk.tick(101 - int(clk.now/1e6))
	if got := sp.Counters().KeepaliveProbesSent; got != 1 {
		t.Fatalf("probes at 101ms = %d, want 1 (the silent flow, on schedule)", got)
	}
	if a, p := sp.ControlSet(); a != 1 || p != 1 {
		t.Fatalf("%d active, %d parked", a, p)
	}
	if silent.Parked || !chatty.Parked {
		t.Fatalf("flags: silent %v chatty %v", silent.Parked, chatty.Parked)
	}
	mustInvariant(t, sp)

	// chatty's deadline moved to 160ms, not 200ms.
	clk.tick(159 - int(clk.now/1e6))
	if !chatty.Parked {
		t.Fatal("chatty probed before its deadline")
	}
	clk.tick(2)
	if chatty.Parked {
		t.Fatal("chatty not probed at touched+KeepaliveTime")
	}
	// The unanswered trains run out: 3 probes, then both flows die.
	clk.tick(100)
	if n := eng.Table.Len(); n != 0 {
		t.Fatalf("%d flows survive an exhausted keepalive budget", n)
	}
	if got := sp.Counters().PeerDeadKeepalive; got != 2 {
		t.Fatalf("PeerDeadKeepalive = %d", got)
	}
	mustInvariant(t, sp)
}

// TestActivationOverflowRescansParked: pushes the ring refused leave
// their flows flagged; the tick after an overflow finds them anyway.
func TestActivationOverflowRescansParked(t *testing.T) {
	eng, sp := newTickRig(Config{})
	clk := &tickClock{sp: sp}
	var flows []*flowstate.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, rigFlow(eng, sp, i, 0))
	}
	filler := rigFlow(eng, sp, 99, 0)
	parkAll(t, clk, 9)

	filler.Lock()
	eng.ActivateFlow(filler)
	filler.Unlock()
	for n := eng.ActivationsLen(); n < 4096; n++ { // stuff the ring with stale duplicates
		filler.Lock()
		filler.Parked = true
		eng.ActivateFlow(filler)
		filler.Unlock()
	}
	for _, f := range flows[:3] {
		f.Lock()
		f.TxBuf.Write(make([]byte, 10))
		eng.ActivateFlow(f) // refused
		parked := f.Parked
		f.Unlock()
		if !parked {
			t.Fatal("ring accepted a push beyond its capacity")
		}
	}
	clk.tick(1)
	if a, p := sp.ControlSet(); a != 4 || p != 5 {
		t.Fatalf("after overflow rescan: %d active, %d parked, want 4 and 5", a, p)
	}
	mustInvariant(t, sp)
}

// TestIdleReclaimTakesParkedFlowsLRUFirst: rung 4 reads LastTouched off
// the flow table, so parking must not hide flows from it or reorder its
// victims — and reclaiming a parked flow must leave the set consistent.
func TestIdleReclaimTakesParkedFlowsLRUFirst(t *testing.T) {
	g := resource.New(resource.Limits{})
	eng, sp := newTickRig(Config{Gov: g, IdleReclaimAge: 50 * time.Millisecond, ReclaimBatch: 2,
		RxBufSize: 1 << 10, TxBufSize: 1 << 10})
	eng.SetGovernor(g)
	clk := &tickClock{sp: sp}
	var flows []*flowstate.Flow
	for i := 0; i < 5; i++ {
		if err := sp.admitFlow(0); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, rigFlow(eng, sp, i, 0))
	}
	parkAll(t, clk, 5)
	// Real engine clock from here: reclaimIdle reads it.
	base := eng.NowNanos()
	order := []int{3, 0, 4, 1, 2} // oldest first
	for age, i := range order {
		flows[i].Touch(base - int64(time.Second) + int64(age)*int64(time.Millisecond))
	}
	for round := 0; round < 2; round++ {
		sp.reclaimIdle(g, eng.NowNanos())
		for _, i := range order[:2*(round+1)] {
			if eng.Table.Lookup(flows[i].Key()) != nil {
				t.Fatalf("round %d: flow %d (among the oldest) survived", round, i)
			}
		}
		if n := eng.Table.Len(); n != 5-2*(round+1) {
			t.Fatalf("round %d: %d flows left", round, n)
		}
		mustInvariant(t, sp)
	}
	if got := sp.Counters().GovIdleReclaimed; got != 4 {
		t.Fatalf("GovIdleReclaimed = %d", got)
	}
}

// TestParkActivateHammer races a sender against a 100µs control tick on
// a live two-node stack: every write is an idle→busy edge candidate,
// every few quiet ticks a park. The transfer must complete, nothing may
// strand parked with work, and the invariant must hold throughout.
func TestParkActivateHammer(t *testing.T) {
	fab := fabric.New()
	// A controller that never moves parks after exactly parkQuietTicks
	// quiet ticks (under a millisecond here), so most pauses below park.
	cfg := Config{
		ControlInterval: 100 * time.Microsecond,
		NewController:   func() congestion.RateController { return fixedRate{rate: 1e9} },
	}
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), cfg)
	b := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 2), cfg)
	b.sp.Listen(80, 0, 1)
	a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 1)
	f := waitEvent(t, a.ctx, 2*time.Second).Flow
	peer := waitEvent(t, b.ctx, 2*time.Second).Flow

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // receiver: keep the window open
		defer wg.Done()
		buf := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			peer.Lock()
			n := peer.RxBuf.Read(buf)
			peer.Unlock()
			if n == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	go func() { // checker
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.sp.CheckControlInvariant(); err != nil {
				t.Errorf("during hammer: %v", err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	sent := 0
	deadline := time.Now().Add(1500 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		f.Lock()
		ok := f.TxBuf.Write(make([]byte, 64))
		f.Unlock()
		if ok {
			sent += 64
			if !a.eng.PushTxCmd(a.ctx, fastpath.TxCmd{Op: fastpath.OpTx, Flow: f, Bytes: 64}) {
				a.eng.KickFlow(f)
			}
		}
		// Mostly pause long enough to park, sometimes not. Long enough
		// means parkQuietTicks ticks of an idle process, whose 100us
		// ticker the runtime delivers about once a millisecond.
		if i%3 == 0 {
			time.Sleep(300 * time.Microsecond)
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitCond(t, "transfer drained", 5*time.Second, func() bool {
		f.Lock()
		defer f.Unlock()
		return f.TxBuf.Used() == 0 && f.TxSent == 0
	})
	waitCond(t, "sender parked again", 5*time.Second, func() bool {
		_, p := a.sp.ControlSet()
		return p == 1
	})
	close(stop)
	wg.Wait()
	mustInvariant(t, a.sp)
	mustInvariant(t, b.sp)
	if n := a.sp.Counters().FlowActivations; n < 10 {
		t.Fatalf("only %d activations: the hammer never exercised park ↔ activate", n)
	}
	t.Logf("%d bytes, %d activations", sent, a.sp.Counters().FlowActivations)
}
