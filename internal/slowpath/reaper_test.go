package slowpath

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/protocol"
)

// reaperCfg shortens every timescale so handshakes and reaping complete
// in tens of milliseconds.
func reaperCfg() Config {
	return Config{
		ControlInterval:  time.Millisecond,
		HandshakeRTO:     10 * time.Millisecond,
		HandshakeRetries: 2,
	}
}

// TestReapOnExit: an application that exits right after connecting is
// reaped by the running slow path, everything it held is taken back, and
// the peer is reset; the peer's own application is untouched.
func TestReapOnExit(t *testing.T) {
	fab := fabric.New()
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), reaperCfg())
	b := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 2), reaperCfg())
	b.sp.Listen(80, 0, 42)

	if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 7); err != nil {
		t.Fatal(err)
	}
	evA := waitEvent(t, a.ctx, 2*time.Second)
	if evA.Kind != fastpath.EvConnected || evA.Flow == nil {
		t.Fatalf("client event: %+v", evA)
	}
	f := evA.Flow
	waitEvent(t, b.ctx, 2*time.Second) // EvAccepted

	a.eng.ExitContext(a.ctx)
	waitCond(t, "client app reaped", 2*time.Second, func() bool { return a.sp.Counters().AppsReaped != 0 })
	c := a.sp.Counters()
	if c.AppsReaped != 1 || c.FlowsReaped != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if !a.ctx.Dead() {
		t.Fatal("context not marked dead")
	}
	if a.eng.Table.Len() != 0 {
		t.Fatalf("flow table still holds %d flows", a.eng.Table.Len())
	}
	if a.eng.ContextByID(0) != nil {
		t.Fatal("context slot not released")
	}
	if !f.Retired() {
		t.Fatal("flow not retired: its charges were not returned")
	}
	if !f.RxBuf.Reclaimed() || !f.TxBuf.Reclaimed() {
		t.Fatal("payload buffers not reclaimed")
	}
	// The peer received the best-effort RST and saw its side aborted.
	ev := waitEvent(t, b.ctx, 2*time.Second)
	if ev.Kind != fastpath.EvAborted {
		t.Fatalf("peer event: %+v", ev)
	}
	if got := b.sp.Counters().AppsReaped; got != 0 {
		t.Fatalf("live app reaped: %d", got)
	}
}

// TestExitReapedOnNextTick: an exit is reaped by the next tick, with no
// timeout to wait out; a context whose application never exits is never
// reaped, however far the clock jumps (a stalled application looks like
// this to the slow path).
func TestExitReapedOnNextTick(t *testing.T) {
	eng, sp, _ := newWireRig(reaperCfg())
	live := fastpath.NewContext(0, 1, 256)
	eng.RegisterContext(live)
	now := eng.NowNanos()
	for _, d := range []time.Duration{time.Millisecond, time.Minute, 24 * time.Hour} {
		sp.tick(now + d.Nanoseconds())
	}
	if got := sp.Counters().AppsReaped; got != 0 {
		t.Fatalf("running apps reaped: %d", got)
	}

	exited := eng.ContextByID(0)
	eng.ExitContext(exited)
	eng.ExitContext(exited) // idempotent
	sp.tick(now + (24*time.Hour + time.Millisecond).Nanoseconds())
	if !exited.Dead() || eng.ContextByID(0) != nil {
		t.Fatal("exited context not reaped by the next tick")
	}
	if live.Dead() {
		t.Fatal("running context reaped with its neighbour")
	}
	if got := sp.Counters().AppsReaped; got != 1 {
		t.Fatalf("AppsReaped = %d, want 1", got)
	}
}

// TestRawContextExemptFromReaping: a raw low-level context that never
// exits must never be reaped no matter how long it idles.
func TestRawContextExemptFromReaping(t *testing.T) {
	eng, sp, _ := newWireRig(reaperCfg())
	clk := &tickClock{sp: sp, now: eng.NowNanos()}
	clk.run(400*time.Millisecond, nil)
	if got := sp.Counters().AppsReaped; got != 0 {
		t.Fatalf("silent raw context reaped: %d", got)
	}
}

func TestReapReclaimsListenPort(t *testing.T) {
	eng, sp, _ := newWireRig(reaperCfg())
	if err := sp.Listen(80, 0, 1); err != nil {
		t.Fatal(err)
	}
	clk := &tickClock{sp: sp, now: eng.NowNanos()}
	eng.ExitContext(eng.ContextByID(0))

	if !clk.run(reaperCfg().ControlInterval, func() bool { return sp.Counters().AppsReaped != 0 }) { // bumped last
		t.Fatal("exited app not reaped")
	}
	if c := sp.Counters(); c.ListenersReaped != 1 || c.AppsReaped != 1 {
		t.Fatalf("counters: %+v", c)
	}
	// The port is free again for the next (live) app.
	ctx2 := fastpath.NewContext(0, 1, 256)
	id := eng.RegisterContext(ctx2)
	if err := sp.Listen(80, id, 2); err != nil {
		t.Fatalf("re-listen after reap: %v", err)
	}
}

// TestBacklogShedsSyn: a listener with backlog 2 and no consumer sheds
// the third concurrent connection attempt — the SYN is dropped silently
// and counted, never RST (a well-behaved peer retries later).
func TestBacklogShedsSyn(t *testing.T) {
	fab := fabric.New()
	cfg := reaperCfg()
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), cfg)
	b := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 2), cfg)
	if _, err := b.sp.ListenBacklog(80, 0, 1, 2); err != nil {
		t.Fatal(err)
	}

	// Two connections fill the accept queue (nobody calls accept).
	for i := uint64(0); i < 2; i++ {
		if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, i); err != nil {
			t.Fatal(err)
		}
		ev := waitEvent(t, a.ctx, 2*time.Second)
		if ev.Kind != fastpath.EvConnected || ev.Bytes != 0 {
			t.Fatalf("conn %d: %+v", i, ev)
		}
	}

	// The third attempt must be shed and eventually time out client-side.
	if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 9); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, a.ctx, 2*time.Second)
	if ev.Kind != fastpath.EvConnected || ev.Bytes != fastpath.ConnTimedOut {
		t.Fatalf("shed connect: %+v", ev)
	}
	if got := b.sp.Counters().SynBacklogDrops; got == 0 {
		t.Fatal("no SynBacklogDrops counted")
	}
	if got := b.eng.Table.Len(); got != 2 {
		t.Fatalf("server installed %d flows, want 2", got)
	}
}

// TestUndeliverableAcceptTornDown: when the accepting context cannot
// take the accept event (dead app between SYN and handshake
// completion), the slow path tears the just-established flow down
// instead of leaking it.
func TestUndeliverableAcceptTornDown(t *testing.T) {
	fab := fabric.New()
	cfg := reaperCfg()
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), cfg)
	b := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 2), cfg)
	if err := b.sp.Listen(80, 0, 1); err != nil {
		t.Fatal(err)
	}
	// The server app dies without unlistening.
	b.ctx.MarkDead()

	if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Client either never establishes or is aborted right after; the
	// server must not retain the flow either way. The drop is counted
	// before the RST goes out and the flow is removed after it, so wait
	// for both.
	waitCond(t, "accept drop counted and flow removed", 2*time.Second, func() bool {
		return b.sp.Counters().AcceptQueueDrops != 0 && b.eng.Table.Len() == 0
	})
	if got := b.sp.Counters().AcceptQueueDrops; got == 0 {
		t.Fatal("no AcceptQueueDrops counted")
	}
	if got := b.eng.Table.Len(); got != 0 {
		t.Fatalf("server retained %d flows", got)
	}
}
