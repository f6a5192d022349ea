package slowpath

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/faultinject"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/shmring"
)

// newCoreWatchNode builds a 2-core engine + slow path with the core
// watchdog armed at its floor timeout and scaling pinned (the test
// controls the active set).
func newCoreWatchNode(t *testing.T, coreTimeout time.Duration) (*fastpath.Engine, *Slowpath) {
	t.Helper()
	fab := fabric.New()
	ip := protocol.MakeIPv4(10, 0, 0, 1)
	var eng *fastpath.Engine
	nic := fab.Attach(ip, func(p *protocol.Packet) { eng.Input(p) })
	eng = fastpath.NewEngine(nic, fastpath.Config{
		LocalIP: ip, LocalMAC: protocol.MACForIPv4(ip), MaxCores: 2,
	})
	sp := New(eng, Config{
		ControlInterval:    time.Millisecond,
		CoreTimeout:        coreTimeout,
		DisableCoreScaling: true,
	})
	eng.Start()
	eng.SetActiveCores(2)
	sp.Start()
	t.Cleanup(func() { sp.Stop(); eng.Stop() })
	return eng, sp
}

// newCoreWatchRig is newCoreWatchNode with the slow path never started:
// the two cores live (and die) for real, and the test runs the
// watchdog's sweeps itself on the clock it returns.
func newCoreWatchRig(t *testing.T, coreTimeout time.Duration) (*fastpath.Engine, *Slowpath, *tickClock) {
	t.Helper()
	ip := protocol.MakeIPv4(10, 0, 0, 1)
	eng := fastpath.NewEngine(&wireNIC{}, fastpath.Config{LocalIP: ip, LocalMAC: protocol.MACForIPv4(ip), MaxCores: 2})
	sp := New(eng, Config{CoreTimeout: coreTimeout, DisableCoreScaling: true})
	eng.Start()
	eng.SetActiveCores(2)
	t.Cleanup(eng.Stop)
	return eng, sp, &tickClock{sp: sp, now: eng.NowNanos()}
}

// sweepAfter advances the clock by d and runs one watchdog sweep, the
// cores named live having first shown a fresh heartbeat.
func (c *tickClock) sweepAfter(t *testing.T, d time.Duration, live ...int) {
	t.Helper()
	eng := c.sp.eng
	for _, i := range live {
		b := eng.CoreBeat(i)
		eng.Nudge(i)
		waitCond(t, "a heartbeat", time.Second, func() bool { return eng.CoreBeat(i) != b })
	}
	c.now += d.Nanoseconds()
	c.sp.coreSweep(c.now)
}

// killCore kills core i and waits for its goroutine to exit.
func killCore(t *testing.T, eng *fastpath.Engine, i int) {
	t.Helper()
	eng.KillCore(i)
	eng.Nudge(i)
	waitCond(t, "the core to exit", time.Second, func() bool { return eng.CoreExited(i) })
}

// installWatchFlow inserts a flow with unacked in-flight data and a cc
// entry, as an established connection mid-transfer would have.
func installWatchFlow(eng *fastpath.Engine, sp *Slowpath) *flowstate.Flow {
	f := &flowstate.Flow{
		LocalIP: eng.Config().LocalIP, LocalPort: 80,
		PeerIP: protocol.MakeIPv4(10, 0, 0, 2), PeerPort: 5000,
		PeerMAC: protocol.MACForIPv4(protocol.MakeIPv4(10, 0, 0, 2)),
		SeqNo:   1500, AckNo: 5000, Window: 64, TxSent: 500,
		RxBuf: shmring.NewPayloadBuffer(64 << 10),
		TxBuf: shmring.NewPayloadBuffer(64 << 10),
	}
	sp.mu.Lock()
	sp.adoptFlow(f, sp.cfg.NewController(), 1500, eng.NowNanos())
	sp.cc[f].stallTicks, sp.cc[f].consecTimeouts = 3, 2
	sp.mu.Unlock()
	eng.Table.Insert(f)
	return f
}

func waitCond(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoreWatchdogDetectsKillMigratesAndReadmits drives the full
// data-plane failure lifecycle: a killed core's frozen heartbeat trips
// the verdict within CoreTimeout, RSS is rewritten around it, its flow
// is migrated (go-back-N rewind + re-armed timeout state), and after
// ReviveCore the watchdog folds the core back in once clean heartbeats
// flow.
func TestCoreWatchdogDetectsKillMigratesAndReadmits(t *testing.T) {
	eng, sp := newCoreWatchNode(t, 250*time.Millisecond)
	f := installWatchFlow(eng, sp)
	victim := eng.CoreForFlow(f)

	eng.KillCore(victim)
	waitCond(t, "failure verdict", 2*time.Second, func() bool {
		return sp.Counters().CoreFailures == 1
	})
	if !eng.CoreFailed(victim) {
		t.Fatalf("core %d not marked failed", victim)
	}
	// Never-steer-to-failed: every RSS bucket must name a survivor.
	for b := 0; b < flowstate.RSSTableSize; b++ {
		if eng.RSS.CoreFor(uint32(b)) == victim {
			t.Fatalf("bucket %d still steers to failed core %d", b, victim)
		}
	}
	// ... including across a scale event while the core is down.
	eng.SetActiveCores(2)
	for b := 0; b < flowstate.RSSTableSize; b++ {
		if eng.RSS.CoreFor(uint32(b)) == victim {
			t.Fatalf("SetCores steered bucket %d back to failed core %d", b, victim)
		}
	}
	if eng.CoreForFlow(f) == victim {
		t.Fatal("flow still owned by the failed core")
	}

	// Migration: in-flight tail rewound as unsent, timeout state re-armed.
	c := sp.Counters()
	if c.FlowsMigrated != 1 {
		t.Fatalf("FlowsMigrated = %d, want 1", c.FlowsMigrated)
	}
	f.Lock()
	seq, txSent := f.SeqNo, f.TxSent
	f.Unlock()
	if seq != 1000 || txSent != 0 {
		t.Fatalf("flow not rewound: SeqNo=%d TxSent=%d, want 1000/0", seq, txSent)
	}
	sp.mu.Lock()
	e := sp.cc[f]
	stall, consec, una := e.stallTicks, e.consecTimeouts, e.lastUna
	sp.mu.Unlock()
	if stall != 0 || consec != 0 || una != 1000 {
		t.Fatalf("cc entry not re-armed: stall=%d consec=%d lastUna=%d", stall, consec, una)
	}

	// Recovery: revive, then the watchdog re-admits after clean beats.
	if !eng.ReviveCore(victim) {
		t.Fatal("ReviveCore failed")
	}
	waitCond(t, "re-admission", 3*time.Second, func() bool {
		return sp.Counters().CoreReadmits == 1 && !eng.CoreFailed(victim)
	})
	owns := false
	for b := 0; b < flowstate.RSSTableSize; b++ {
		if eng.RSS.CoreFor(uint32(b)) == victim {
			owns = true
			break
		}
	}
	if !owns {
		t.Fatalf("re-admitted core %d owns no RSS buckets", victim)
	}
}

// TestCoreWatchdogStallAutoRecovers: a stall longer than CoreTimeout
// draws the failure verdict, and the watchdog re-admits the core on its
// own once the stall ends and heartbeats resume — no ReviveCore needed,
// symmetric with the slow path's own stall story.
func TestCoreWatchdogStallAutoRecovers(t *testing.T) {
	eng, sp := newCoreWatchNode(t, 250*time.Millisecond)
	faultinject.Attach(eng).StallCore(1, 600*time.Millisecond)
	waitCond(t, "stall verdict", 2*time.Second, func() bool {
		return sp.Counters().CoreFailures == 1 && eng.CoreFailed(1)
	})
	waitCond(t, "auto re-admission", 3*time.Second, func() bool {
		return sp.Counters().CoreReadmits == 1 && !eng.CoreFailed(1)
	})
}

// TestCoreWatchdogSparesLastCore: the watchdog never condemns the last
// eligible core. With core 1 dead and excluded, killing core 0 too must
// not draw a verdict — excluding it would leave nothing to steer to,
// strictly worse than leaving the (possibly just starved) core in
// place. Once core 1 revives and is re-admitted, the still-dead core 0
// finally draws its deferred verdict.
func TestCoreWatchdogSparesLastCore(t *testing.T) {
	const timeout = 250 * time.Millisecond
	eng, sp, clk := newCoreWatchRig(t, timeout)
	killCore(t, eng, 1)
	clk.sweepAfter(t, 0, 0)
	clk.sweepAfter(t, timeout+time.Millisecond, 0)
	if sp.Counters().CoreFailures != 1 || !eng.CoreFailed(1) {
		t.Fatal("no failure verdict on the dead core 1")
	}

	killCore(t, eng, 0)
	for i := 0; i < 4; i++ { // well past CoreTimeout
		clk.sweepAfter(t, timeout)
	}
	if eng.CoreFailed(0) {
		t.Fatal("watchdog condemned the last eligible core")
	}
	if c := sp.Counters().CoreFailures; c != 1 {
		t.Fatalf("CoreFailures = %d, want 1 (last-core verdict deferred)", c)
	}

	// A survivor returns: core 1 is re-admitted, and the deferred
	// verdict against core 0 lands.
	if !eng.ReviveCore(1) {
		t.Fatal("ReviveCore failed")
	}
	for i := 0; i <= coreReadmitBeats; i++ {
		clk.sweepAfter(t, time.Millisecond, 1)
	}
	if c := sp.Counters(); c.CoreReadmits != 1 || c.CoreFailures != 2 || !eng.CoreFailed(0) {
		t.Fatalf("deferred verdict on core 0 missing: %+v, core 0 failed %v", c, eng.CoreFailed(0))
	}
	if eng.CoreFailed(1) {
		t.Fatal("revived core 1 not re-admitted")
	}
}

// TestCoreWatchdogDisabled: a negative CoreTimeout turns the watchdog
// off — a dead core is never declared failed, even well past the 500ms
// default.
func TestCoreWatchdogDisabled(t *testing.T) {
	eng, sp, clk := newCoreWatchRig(t, -1)
	killCore(t, eng, 1)
	clk.sweepAfter(t, 0)
	clk.sweepAfter(t, 10*time.Second)
	if c := sp.Counters().CoreFailures; c != 0 {
		t.Fatalf("disabled watchdog declared %d failures", c)
	}
	if eng.CoreFailed(1) {
		t.Fatal("disabled watchdog marked core failed")
	}
}

// TestCoreWatchdogSurvivesWarmRestart: a warm-restarted slow path
// adopts the predecessor's failure verdicts (the failed core stays
// excluded) and can still re-admit the core after revival.
func TestCoreWatchdogSurvivesWarmRestart(t *testing.T) {
	const timeout = 250 * time.Millisecond
	eng, sp, clk := newCoreWatchRig(t, timeout)
	killCore(t, eng, 1)
	clk.sweepAfter(t, 0, 0)
	clk.sweepAfter(t, timeout+time.Millisecond, 0)
	if sp.Counters().CoreFailures != 1 {
		t.Fatal("no failure verdict")
	}

	// Crash and warm-restart the slow path on the same engine.
	sp.Kill()
	ns := sp.Successor()
	ns.Recover()
	clk = &tickClock{sp: ns, now: eng.NowNanos()}

	if !eng.CoreFailed(1) {
		t.Fatal("warm restart lost the failure verdict")
	}
	clk.sweepAfter(t, 4*timeout, 0)
	if !eng.CoreFailed(1) || ns.Counters().CoreFailures != 1 {
		t.Fatalf("restarted instance re-judged the core: %+v", ns.Counters())
	}

	if !eng.ReviveCore(1) {
		t.Fatal("ReviveCore failed")
	}
	for i := 0; i < coreReadmitBeats; i++ {
		clk.sweepAfter(t, time.Millisecond, 0, 1)
	}
	if ns.Counters().CoreReadmits != 1 || eng.CoreFailed(1) {
		t.Fatalf("restarted instance did not re-admit core 1: %+v", ns.Counters())
	}
}
