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
	cfg := Config{ControlInterval: time.Millisecond}
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
	cfg := Config{ControlInterval: time.Millisecond}
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
	cfg := Config{ControlInterval: time.Millisecond}
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
	if !f.Retired() {
		t.Fatal("flow not retired: its charges were not returned")
	}
	if got := a.sp.Counters().RecoveryAborts; got != 1 {
		t.Fatalf("RecoveryAborts = %d, want 1", got)
	}
	// The peer got the best-effort RST.
	if ev := waitEvent(t, b.ctx, 2*time.Second); ev.Kind != fastpath.EvAborted {
		t.Fatalf("peer event: %+v", ev)
	}
}

// TestRecoverReapsExitedContext: an application that exits while its
// slow path is crashed — the crashed instance never ticked again — is
// reaped by the successor's Recover, before it readopts any flow: the
// context's listen port is free, its flow is aborted with an RST, and
// it counts as one reaped app.
func TestRecoverReapsExitedContext(t *testing.T) {
	eng, sp, nic := newWireRig(reaperCfg())
	if err := sp.Listen(80, 0, 1); err != nil {
		t.Fatal(err)
	}
	f := rigFlow(eng, sp, 1, eng.NowNanos())
	ctx := eng.ContextByID(0)

	eng.ExitContext(ctx)
	sp.Kill()
	ns := sp.Successor()
	rep := ns.Recover()

	if !ctx.Dead() || eng.ContextByID(0) != nil {
		t.Fatal("exited context survived recovery")
	}
	if c := ns.Counters(); c.AppsReaped != 1 || c.FlowsReaped != 1 || c.ListenersReaped != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if rep.FlowsReconstructed != 0 || rep.FlowsAborted != 0 {
		t.Fatalf("recovery readopted or aborted the reaped flow: %+v", rep)
	}
	if !f.Aborted || eng.Table.Len() != 0 {
		t.Fatalf("flow aborted=%v, table holds %d", f.Aborted, eng.Table.Len())
	}
	if rsts := nic.take(func(p *protocol.Packet) bool { return p.Flags.Has(protocol.FlagRST) }); len(rsts) != 1 {
		t.Fatalf("peer got %d RSTs, want 1", len(rsts))
	}
	id := eng.RegisterContext(fastpath.NewContext(0, 1, 256))
	if err := ns.Listen(80, id, 2); err != nil {
		t.Fatalf("re-listen after reap: %v", err)
	}
}

// TestPanicInjectionKillsLoop: an injected event-loop panic must be
// contained (counted, loop dead, API failing fast with ErrDown) — not
// propagate into the engine's goroutines — and a warm restart brings
// the control plane back.
func TestPanicInjectionKillsLoop(t *testing.T) {
	fab := fabric.New()
	cfg := Config{ControlInterval: time.Millisecond}
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
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), Config{})
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
