package fastpath

import (
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

// waitFor polls cond up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// faultOnce installs a fault hook that runs fn the first time unit
// reaches point at.
func faultOnce(e *Engine, at FaultPoint, unit int, fn func()) {
	var once sync.Once
	e.SetFaultHook(func(p FaultPoint, u int) {
		if p == at && u == unit {
			once.Do(fn)
		}
	})
}

// stallCore wedges core i for d at its next step on its own goroutine,
// holding its run token; the doorbell gets a parked core there.
func stallCore(e *Engine, i int, d time.Duration) {
	faultOnce(e, FaultCoreStep, i, func() { time.Sleep(d) })
	e.Nudge(i)
}

// TestCoreKillAndRevive: KillCore makes the goroutine exit as a crash
// would — heartbeats freeze, exited flips — while the other core keeps
// beating; ReviveCore relaunches it and the heartbeat resumes.
func TestCoreKillAndRevive(t *testing.T) {
	e, _ := testEngine()
	e.Start()
	defer e.Stop()

	waitFor(t, "core 0 first beats", func() bool { return e.CoreBeat(0) > 0 })
	if e.CoreExited(0) {
		t.Fatal("core 0 exited while healthy")
	}
	// Revive on a running core must refuse.
	if e.ReviveCore(0) {
		t.Fatal("ReviveCore succeeded on a live core")
	}

	e.KillCore(0)
	waitFor(t, "core 0 exit", func() bool { return e.CoreExited(0) })
	frozen := e.CoreBeat(0)
	before1 := e.CoreBeat(1)
	time.Sleep(150 * time.Millisecond)
	if got := e.CoreBeat(0); got != frozen {
		t.Fatalf("dead core 0 beat advanced %d -> %d", frozen, got)
	}
	waitFor(t, "core 1 still beating", func() bool { return e.CoreBeat(1) > before1 })

	if !e.ReviveCore(0) {
		t.Fatal("ReviveCore failed on an exited core")
	}
	waitFor(t, "revived core 0 beats", func() bool { return e.CoreBeat(0) > frozen })
	if e.CoreExited(0) {
		t.Fatal("revived core 0 still marked exited")
	}
}

// TestCorePanicContained: an injected run-loop panic must not escape to
// the process — launchCore contains it, counts it, and marks the core
// exited, exactly like a kill.
func TestCorePanicContained(t *testing.T) {
	e, _ := testEngine()
	e.Start()
	defer e.Stop()

	waitFor(t, "core 0 beats", func() bool { return e.CoreBeat(0) > 0 })
	faultOnce(e, FaultCoreStep, 0, func() { panic("injected core panic") })
	e.Nudge(0)
	waitFor(t, "core 0 exit after panic", func() bool { return e.CoreExited(0) })
	if got := e.CorePanics(0); got != 1 {
		t.Fatalf("CorePanics = %d, want 1", got)
	}
	if st := e.CoreFaults(); st.Panics != 1 || st.Exited != 1 {
		t.Fatalf("CoreFaults = %+v", st)
	}
	// The fault fired once: a revived core runs clean.
	if !e.ReviveCore(0) {
		t.Fatal("ReviveCore failed after panic")
	}
	beat := e.CoreBeat(0)
	waitFor(t, "revived core beats", func() bool { return e.CoreBeat(0) > beat })
	if got := e.CorePanics(0); got != 1 {
		t.Fatalf("CorePanics after revive = %d, want still 1", got)
	}
}

// TestDrainFailedCoreRequeues: packets sitting in a dead core's receive
// ring are requeued through Input — which, after the failure re-steer,
// delivers them to a survivor — and so are an application's TX requests
// on its request ring, whose bytes the survivor then sends; a stalled
// (not exited) core's rings are left alone (single-consumer safety) with
// their backlog counted stranded.
func TestDrainFailedCoreRequeues(t *testing.T) {
	e, _ := testEngine()
	e.Start()
	defer e.Stop()
	f := testFlow(e)
	ctx := NewContext(0, 2, 64)
	e.RegisterContext(ctx)
	f.Context = 0
	send := func(n int) {
		f.Lock()
		f.TxBuf.Write(make([]byte, n))
		f.Unlock()
		if !e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: uint32(n)}) {
			t.Fatal("PushTxCmd refused")
		}
	}

	// Kill core 0 and wait for the goroutine to be provably gone, then
	// park packets in its ring (RSS still steers to it pre-verdict).
	e.KillCore(0)
	waitFor(t, "core 0 exit", func() bool { return e.CoreExited(0) })
	if want := e.RSS.CoreForPacket(dataPkt(f, 5000, []byte("x"))); want != 0 {
		t.Skipf("test flow hashes to core %d, want 0", want)
	}
	for i := 0; i < 5; i++ {
		e.Input(dataPkt(f, 5000, []byte("hello")))
	}
	if got := e.cores[0].rxRing.Len(); got != 5 {
		t.Fatalf("dead core ring holds %d packets, want 5", got)
	}
	// Three sends, the first inline-sized: a killed core runs no inline
	// step, so every request waits on its ring.
	for _, n := range []int{100, 2000, 3000} {
		send(n)
	}
	if got := e.cores[0].kicks.Len(); got != 3 {
		t.Fatalf("dead core request ring holds %d requests, want 3", got)
	}

	if !e.MarkCoreFailed(0) {
		t.Fatal("MarkCoreFailed returned false")
	}
	if e.MarkCoreFailed(0) {
		t.Fatal("MarkCoreFailed not idempotent")
	}
	if requeued := e.DrainFailedCore(0); requeued != 8 {
		t.Fatalf("DrainFailedCore requeued %d, want 8", requeued)
	}
	if got := e.cores[0].rxRing.Len() + e.cores[0].kicks.Len(); got != 0 {
		t.Fatalf("dead core rings still hold %d items", got)
	}
	// The survivor actually processed them: the flow acked the payload,
	// and the four duplicates are out of its ring too — the first one
	// sets AckNo, and any still queued when the stall below begins would
	// be counted stranded with the probe packet.
	waitFor(t, "survivor processes requeued data", func() bool {
		f.Lock()
		defer f.Unlock()
		return f.AckNo == 5005 && e.cores[1].rxRing.Len() == 0
	})
	waitFor(t, "survivor sends the requeued requests' bytes", func() bool {
		return e.Stats(1).TxBytes.Load() == 5100
	})

	// Stalled core: goroutine alive, rings untouchable.
	stallCore(e, 1, 10*time.Second)
	waitFor(t, "core 1 stall", func() bool {
		b := e.CoreBeat(1)
		time.Sleep(20 * time.Millisecond)
		return e.CoreBeat(1) == b
	})
	e.cores[1].rxRing.Enqueue(dataPkt(f, 6000, []byte("stuck")))
	send(10) // the stalled core holds its token: the request waits on its ring
	if requeued := e.DrainFailedCore(1); requeued != 0 {
		t.Fatalf("drained %d items from a stalled core's rings", requeued)
	}
	if got := e.cores[1].stats.Stranded.Load(); got != 2 {
		t.Fatalf("Stranded = %d, want 2", got)
	}
	if d := e.Drops(); d.CoreStranded != 2 {
		t.Fatalf("Drops().CoreStranded = %d, want 2", d.CoreStranded)
	}
}

// TestStopBoundedStalledCore: Engine.Stop must complete within its
// bound even when a core goroutine is wedged mid-iteration and never
// reaches the loop's stop check.
func TestStopBoundedStalledCore(t *testing.T) {
	e, _ := testEngine()
	e.Start()
	waitFor(t, "core 0 beats", func() bool { return e.CoreBeat(0) > 0 })
	stallCore(e, 0, time.Hour)
	waitFor(t, "core 0 wedged", func() bool {
		b := e.CoreBeat(0)
		time.Sleep(20 * time.Millisecond)
		return e.CoreBeat(0) == b
	})

	start := time.Now()
	e.Stop()
	if took := time.Since(start); took > stopTimeout+time.Second {
		t.Fatalf("Stop took %v with a stalled core, want <= ~%v", took, stopTimeout)
	}
}

// TestSetActiveCoresConcurrentTraffic is the race-regression test for
// live re-steering: SetActiveCores rewrites RSS while cores are mid
// receive and transmit-request batches, and packets keep arriving
// throughout. The
// per-flow spinlock and wrong-core tolerance must hold under -race;
// every steering decision lands on a core inside [0, MaxCores).
func TestSetActiveCoresConcurrentTraffic(t *testing.T) {
	nic := &syncNIC{}
	e := NewEngine(nic, Config{
		LocalIP:  protocol.MakeIPv4(10, 0, 0, 1),
		LocalMAC: protocol.MACForIPv4(protocol.MakeIPv4(10, 0, 0, 1)),
		MaxCores: 4,
	})
	e.Start()
	defer e.Stop()
	f := testFlow(e)
	ctx := NewContext(0, 4, 64)
	e.RegisterContext(ctx)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// RX feeder: a stream of (duplicate) data segments.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.Input(dataPkt(f, 5000, []byte("payload")))
			if i%16 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	// TX feeder: application requests and kicks racing the rewrites.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f})
			e.KickFlow(f)
			if i%16 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	// Scaling churn: the slow path's decision loop at high frequency.
	for iter := 0; iter < 500; iter++ {
		e.SetActiveCores(1 + iter%4)
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	var processed uint64
	for i := 0; i < e.MaxCores(); i++ {
		processed += e.Stats(i).RxPackets.Load()
	}
	if processed == 0 {
		t.Fatal("no packets processed during scaling churn")
	}
}
