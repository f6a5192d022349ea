package faultinject

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/protocol"
	"repro/internal/slowpath"
)

// waitFor polls cond up to 3s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// node is a started 2-core engine and slow path whose watchdogs stay
// out of the way: no core verdicts, a 100ms slow-path timeout.
func node(t *testing.T) (*fastpath.Engine, *slowpath.Slowpath) {
	t.Helper()
	ip := protocol.MakeIPv4(10, 0, 0, 1)
	var eng *fastpath.Engine
	nic := fabric.New().Attach(ip, func(p *protocol.Packet) { eng.Input(p) })
	eng = fastpath.NewEngine(nic, fastpath.Config{
		LocalIP: ip, LocalMAC: protocol.MACForIPv4(ip), MaxCores: 2,
		SlowPathTimeout: 100 * time.Millisecond,
	})
	sp := slowpath.New(eng, slowpath.Config{
		ControlInterval: time.Millisecond, CoreTimeout: -1, DisableCoreScaling: true,
	})
	eng.Start()
	sp.Start()
	t.Cleanup(func() { sp.Stop(); eng.Stop() })
	return eng, sp
}

// TestCoreAndSlowPathStallsPending: a core stall and a slow-path stall
// armed on one engine are pending together, and each fires exactly
// once: the core's beat stops and the fast path degrades, both recover
// when the stalls end, and neither party stalls again.
func TestCoreAndSlowPathStallsPending(t *testing.T) {
	eng, _ := node(t)
	in := Attach(eng)
	waitFor(t, "core 1 beats", func() bool { return eng.CoreBeat(1) > 0 })

	const d = 400 * time.Millisecond
	in.StallCore(1, d)
	in.StallSlowPath(d)
	waitFor(t, "both stalls fire", func() bool { return in.Fired() == 2 })
	beat := eng.CoreBeat(1)
	waitFor(t, "slow-path stall degrades the fast path", eng.Degraded)
	if got := eng.CoreBeat(1); got != beat {
		t.Fatalf("stalled core 1 beat %d -> %d", beat, got)
	}

	waitFor(t, "core 1 beats again", func() bool { return eng.CoreBeat(1) > beat })
	waitFor(t, "the fast path leaves degraded mode", func() bool { return !eng.Degraded() })
	time.Sleep(d)
	if n := in.Fired(); n != 2 || eng.Degraded() {
		t.Fatalf("after both stalls: %d fired (want 2), degraded %v", n, eng.Degraded())
	}
}

// TestPanicsContained: an injected panic takes down exactly its party,
// where a panic in its own work would: the core's goroutine exits with
// the panic counted, and the slow path goes down until a restart.
func TestPanicsContained(t *testing.T) {
	eng, sp := node(t)
	in := Attach(eng)
	waitFor(t, "core 0 beats", func() bool { return eng.CoreBeat(0) > 0 })

	in.PanicCore(0)
	waitFor(t, "core 0 exits", func() bool { return eng.CoreExited(0) })
	if n := eng.CorePanics(0); n != 1 || eng.CoreExited(1) {
		t.Fatalf("core panics %d (want 1), core 1 exited %v", n, eng.CoreExited(1))
	}

	in.PanicSlowPath()
	waitFor(t, "slow path down", sp.Down)
	if n := sp.Counters().Panics; n != 1 {
		t.Fatalf("slow-path panics %d, want 1", n)
	}
}
