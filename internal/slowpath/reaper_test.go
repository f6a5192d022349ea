package slowpath

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/protocol"
)

// reaperCfg shortens every timescale so crash detection and reaping
// complete in tens of milliseconds.
func reaperCfg() Config {
	return Config{
		ControlInterval:  time.Millisecond,
		AppTimeout:       40 * time.Millisecond,
		HandshakeRTO:     10 * time.Millisecond,
		HandshakeRetries: 2,
	}
}

func TestReapOnMissedHeartbeat(t *testing.T) {
	fab := fabric.New()
	a := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 1), reaperCfg())
	b := newNode(t, fab, protocol.MakeIPv4(10, 0, 0, 2), reaperCfg())
	b.sp.Listen(80, 0, 42)

	// The client app beats once (liveness enabled) and then goes silent —
	// an app that crashed right after connecting.
	a.ctx.Beat(a.eng.NowNanos())
	if _, err := a.sp.Connect(protocol.MakeIPv4(10, 0, 0, 2), 80, 0, 7); err != nil {
		t.Fatal(err)
	}
	evA := waitEvent(t, a.ctx, 2*time.Second)
	if evA.Kind != fastpath.EvConnected || evA.Flow == nil {
		t.Fatalf("client event: %+v", evA)
	}
	f := evA.Flow
	waitEvent(t, b.ctx, 2*time.Second) // EvAccepted
	b.ctx.Beat(b.eng.NowNanos())       // keep the server app alive
	stopBeat := make(chan struct{})
	defer close(stopBeat)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopBeat:
				return
			case <-tick.C:
				b.ctx.Beat(b.eng.NowNanos())
			}
		}
	}()

	// The reaper must declare the client app dead and take everything
	// back.
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
	if a.eng.Bucket(f.Bucket) != nil {
		t.Fatal("rate bucket not freed")
	}
	if !f.RxBuf.Reclaimed() || !f.TxBuf.Reclaimed() {
		t.Fatal("payload buffers not reclaimed")
	}
	// The peer received the best-effort RST and saw its side aborted.
	ev := waitEvent(t, b.ctx, 2*time.Second)
	if ev.Kind != fastpath.EvAborted {
		t.Fatalf("peer event: %+v", ev)
	}
	// The server app, which kept beating, must be untouched.
	if got := b.sp.Counters().AppsReaped; got != 0 {
		t.Fatalf("live app reaped: %d", got)
	}
}

func TestHeartbeatPreventsReap(t *testing.T) {
	eng, sp, _ := newWireRig(reaperCfg())
	ctx := eng.ContextByID(0)
	clk := &tickClock{sp: sp, now: eng.NowNanos()}
	clk.run(15*reaperCfg().AppTimeout, func() bool { // several AppTimeouts
		ctx.Beat(clk.now)
		return false
	})
	if got := sp.Counters().AppsReaped; got != 0 {
		t.Fatalf("beating app was reaped: %d", got)
	}
	if ctx.Dead() {
		t.Fatal("beating context marked dead")
	}
}

// TestRawContextExemptFromReaping: a context that never beats has
// liveness disabled (lastBeat == 0) — the low-level API contract — and
// must never be reaped no matter how long it idles.
func TestRawContextExemptFromReaping(t *testing.T) {
	eng, sp, _ := newWireRig(reaperCfg())
	clk := &tickClock{sp: sp, now: eng.NowNanos()}
	clk.run(10*reaperCfg().AppTimeout, nil)
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
	eng.ContextByID(0).Beat(clk.now) // enable liveness, then crash

	if !clk.run(2*reaperCfg().AppTimeout, func() bool { return sp.Counters().AppsReaped != 0 }) { // bumped last
		t.Fatal("silent app not reaped")
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
	cfg.AppTimeout = -1 // isolate backlog behavior from the reaper
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
	cfg.AppTimeout = -1
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
