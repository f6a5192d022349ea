package slowpath

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/faultinject"
	"repro/internal/protocol"
)

// restart kills a node's slow path and warm-restarts it over the same
// engine — the production sequence (tas.Service.Restart) at this layer.
func restart(t *testing.T, n *testNode) RecoveryStats {
	t.Helper()
	n.sp.Kill()
	ns := n.sp.Successor()
	rep := ns.Recover()
	ns.Start()
	t.Cleanup(ns.Stop)
	n.sp = ns
	return rep
}

// TestWarmRestartReconstructsFlows: established connections survive a
// slow-path crash, and a fresh instance rebuilds its congestion/RTO
// state for every one of them from the shared flow table.
func TestWarmRestartReconstructsFlows(t *testing.T) {
	fab := fabric.New()
	cfg := Config{ControlInterval: time.Millisecond, AppTimeout: -1}
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), cfg)
	b := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 2), cfg)
	if err := b.sp.Listen(80, 0, 42); err != nil {
		t.Fatal(err)
	}

	const flows = 3
	for i := uint64(0); i < flows; i++ {
		if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, i); err != nil {
			t.Fatal(err)
		}
		if ev := waitEvent(t, a.ctx, 2*time.Second); ev.Kind != fastpath.EvConnected {
			t.Fatalf("conn %d: %+v", i, ev)
		}
		waitEvent(t, b.ctx, 2*time.Second) // EvAccepted
	}
	pre := a.eng.Table.Len()
	if pre != flows {
		t.Fatalf("table holds %d flows before crash, want %d", pre, flows)
	}

	rep := restart(t, a)
	if rep.FlowsReconstructed != pre || rep.FlowsAborted != 0 {
		t.Fatalf("recovery: %+v, want %d reconstructed, 0 aborted", rep, pre)
	}
	if got := a.eng.Table.Len(); got != pre {
		t.Fatalf("table shrank across restart: %d", got)
	}
	c := a.sp.Counters()
	if c.FlowsReconstructed != flows || c.RecoveryAborts != 0 {
		t.Fatalf("counters: %+v", c)
	}
	// The restarted instance serves new work: another connect succeeds.
	if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 99); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, a.ctx, 2*time.Second); ev.Kind != fastpath.EvConnected || ev.Bytes != 0 {
		t.Fatalf("post-restart connect: %+v", ev)
	}
}

// TestWarmRestartRebuildsListeners: listening ports are readopted from
// the shared registry, so a peer can connect to a port whose listener
// was registered before the crash.
func TestWarmRestartRebuildsListeners(t *testing.T) {
	fab := fabric.New()
	cfg := Config{ControlInterval: time.Millisecond, AppTimeout: -1}
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), cfg)
	b := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 2), cfg)
	pending, err := b.sp.ListenBacklog(80, 0, 42, 16)
	if err != nil {
		t.Fatal(err)
	}

	rep := restart(t, b)
	if rep.ListenersRebuilt != 1 {
		t.Fatalf("recovery: %+v, want 1 listener rebuilt", rep)
	}
	// The accept-depth gauge the application holds is the same object
	// the rebuilt listener uses: admission control still sees accepts.
	if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 7); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, a.ctx, 2*time.Second); ev.Kind != fastpath.EvConnected || ev.Bytes != 0 {
		t.Fatalf("connect to rebuilt listener: %+v", ev)
	}
	waitEvent(t, b.ctx, 2*time.Second) // EvAccepted
	if got := pending.Load(); got != 1 {
		t.Fatalf("shared pending gauge = %d, want 1", got)
	}
	// The port is still owned: a duplicate listen is refused.
	if err := b.sp.Listen(80, 0, 1); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("duplicate listen: %v", err)
	}
}

// TestWarmRestartAbortsUnprovableFlows: a flow whose owning context died
// during the outage cannot be proven consistent — recovery aborts it
// (RST, state reclaimed) instead of resuming control over garbage.
func TestWarmRestartAbortsUnprovableFlows(t *testing.T) {
	fab := fabric.New()
	cfg := Config{ControlInterval: time.Millisecond, AppTimeout: -1}
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), cfg)
	b := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 2), cfg)
	if err := b.sp.Listen(80, 0, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 7); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, a.ctx, 2*time.Second)
	if ev.Kind != fastpath.EvConnected || ev.Flow == nil {
		t.Fatalf("connect: %+v", ev)
	}
	f := ev.Flow
	waitEvent(t, b.ctx, 2*time.Second)

	a.ctx.MarkDead() // the app died while the control plane was down

	rep := restart(t, a)
	if rep.FlowsReconstructed != 0 || rep.FlowsAborted != 1 {
		t.Fatalf("recovery: %+v, want 0 reconstructed, 1 aborted", rep)
	}
	if got := a.eng.Table.Len(); got != 0 {
		t.Fatalf("aborted flow still in table (%d)", got)
	}
	if !f.RxBuf.Reclaimed() || !f.TxBuf.Reclaimed() {
		t.Fatal("payload buffers not reclaimed")
	}
	if a.eng.Bucket(f.Bucket) != nil {
		t.Fatal("rate bucket not freed")
	}
	if got := a.sp.Counters().RecoveryAborts; got != 1 {
		t.Fatalf("RecoveryAborts = %d, want 1", got)
	}
	// The peer got the best-effort RST.
	if ev := waitEvent(t, b.ctx, 2*time.Second); ev.Kind != fastpath.EvAborted {
		t.Fatalf("peer event: %+v", ev)
	}
}

// TestReapGraceAfterStall is the regression test for the reaper
// false-positive: an app that was alive but could not beat while the
// control plane stalled must NOT be reaped when the loop resumes —
// stale heartbeat stamps from before the gap prove nothing.
func TestReapGraceAfterStall(t *testing.T) {
	cfg := reaperCfg() // AppTimeout 40ms
	eng, sp, _ := newWireRig(cfg)
	ctx := eng.ContextByID(0)
	clk := &tickClock{sp: sp, now: eng.NowNanos()}
	ctx.Beat(clk.now) // liveness enabled
	clk.run(5*time.Millisecond, nil)

	// The control plane stalls for several AppTimeouts: no tick runs, and
	// the app goes silent too (blocked on the stalled control plane) and
	// only beats again once the loop resumes.
	clk.now += (150 * time.Millisecond).Nanoseconds()

	// Resume beating promptly and keep it up past the grace window.
	clk.run(3*cfg.AppTimeout, func() bool {
		ctx.Beat(clk.now)
		return false
	})
	if got := sp.Counters().AppsReaped; got != 0 {
		t.Fatalf("live app reaped after stall: AppsReaped = %d", got)
	}
	if ctx.Dead() {
		t.Fatal("live context marked dead after stall")
	}
}

// TestReapResumesAfterGrace: the grace window is not amnesty — an app
// that stays silent after the restart is still reaped once the window
// plus AppTimeout pass, and not before the window ends.
func TestReapResumesAfterGrace(t *testing.T) {
	cfg := reaperCfg()
	eng, sp, _ := newWireRig(cfg)
	eng.ContextByID(0).Beat(eng.NowNanos()) // liveness enabled, then the app truly dies

	sp.Kill()
	ns := sp.Successor()
	ns.Recover()
	clk := &tickClock{sp: ns, now: ns.reapResume}
	reaped := func() bool { return ns.Counters().AppsReaped != 0 }
	if clk.run(cfg.AppTimeout-cfg.ControlInterval, reaped) {
		t.Fatal("dead app reaped inside the grace window")
	}
	if !clk.run(cfg.AppTimeout, reaped) {
		t.Fatalf("dead app not reaped after grace: AppsReaped = %d", ns.Counters().AppsReaped)
	}
}

// TestPanicInjectionKillsLoop: an injected event-loop panic must be
// contained (counted, loop dead, API failing fast with ErrDown) — not
// propagate into the engine's goroutines — and a warm restart brings
// the control plane back.
func TestPanicInjectionKillsLoop(t *testing.T) {
	fab := fabric.New()
	cfg := Config{ControlInterval: time.Millisecond, AppTimeout: -1}
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), cfg)
	b := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 2), cfg)
	if err := b.sp.Listen(80, 0, 42); err != nil {
		t.Fatal(err)
	}

	faultinject.Attach(a.eng).PanicSlowPath()
	waitCond(t, "the loop to die", 2*time.Second, a.sp.Down)
	if !a.sp.Down() {
		t.Fatal("injected panic did not kill the loop")
	}
	if got := a.sp.Counters().Panics; got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 1); !errors.Is(err, ErrDown) {
		t.Fatalf("Connect on dead slow path: %v, want ErrDown", err)
	}
	if err := a.sp.Listen(81, 0, 1); !errors.Is(err, ErrDown) {
		t.Fatalf("Listen on dead slow path: %v, want ErrDown", err)
	}

	restart(t, a)
	if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 2); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, a.ctx, 2*time.Second); ev.Kind != fastpath.EvConnected || ev.Bytes != 0 {
		t.Fatalf("post-restart connect: %+v", ev)
	}
}

// TestSuccessorSharesEveryCounter: every counter the declaration lists
// reads the same through a successor as through the instance that
// counted it, and keeps counting from there — which is all the old
// copy-out/copy-back did, field by hand-listed field.
func TestSuccessorSharesEveryCounter(t *testing.T) {
	fab := fabric.New()
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), Config{AppTimeout: -1})
	live := reflect.ValueOf(a.sp.ctr).Elem()
	for i := 0; i < live.NumField(); i++ {
		live.Field(i).Addr().Interface().(*atomic.Uint64).Store(uint64(i + 1))
	}
	restart(t, a)
	a.sp.ctr.Aborts.Add(100)
	got := reflect.ValueOf(a.sp.Counters())
	for i := 0; i < got.NumField(); i++ {
		want := uint64(i + 1)
		if got.Type().Field(i).Name == "Aborts" {
			want += 100
		}
		if v := got.Field(i).Uint(); v != want {
			t.Errorf("%s = %d after the restart, want %d", got.Type().Field(i).Name, v, want)
		}
	}
}
