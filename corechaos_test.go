package tas

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fastpath"
	"repro/internal/flowstate"
)

// coreChaosCfg pins four fast-path cores (no scaling churn under the
// fault) and arms the core watchdog. ControlInterval 10ms gives a 20ms
// base RTO (stallIntervals=2) and a detection sweep fast enough that
// CoreTimeout dominates detection latency. CoreTimeout 400ms sits 4×
// above the blocked-core heartbeat period (100ms), so a healthy core is
// never falsely condemned even under the race detector's slowdown.
func coreChaosCfg() Config {
	return Config{
		MaxCores:           4,
		DisableCoreScaling: true,
		CoreTimeout:        400 * time.Millisecond,
		ControlInterval:    10 * time.Millisecond,
		HandshakeRTO:       20 * time.Millisecond,
		HandshakeRetries:   3,
		MaxRetransmits:     10,
		Telemetry:          TelemetryConfig{Enabled: true},
	}
}

// waitServerEstablished blocks until the server has installed n flows.
// Dial returns when the *client* is established; its completing ACK may
// still sit in a server core's receive ring. A core killed in that window
// strands the ACK until the failure verdict drains the ring
// (CoreTimeout, 400ms here) — longer than this config's whole handshake
// retry budget (20+40+80+160ms), so the server gives the half-open up
// and the connection is lost before it ever existed. That is correct
// fail-closed behaviour for a handshake, but these tests are about
// established flows surviving a core failure.
func waitServerEstablished(t *testing.T, srv *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Engine().Table.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("server established %d of %d connections", srv.Engine().Table.Len(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// victimCore returns the active core owning the most flows in eng's
// table (ties to the lowest index) and how many flows it owns.
func victimCore(eng *fastpath.Engine) (int, int) {
	counts := make(map[int]int)
	eng.Table.ForEach(func(f *flowstate.Flow) {
		counts[eng.CoreForFlow(f)]++
	})
	victim, n := -1, 0
	for c, k := range counts {
		if k > n || (k == n && (victim < 0 || c < victim)) {
			victim, n = c, k
		}
	}
	return victim, n
}

// assertNoBucketSteersTo fails if any RSS bucket names the given core.
func assertNoBucketSteersTo(t *testing.T, eng *fastpath.Engine, core int, when string) {
	t.Helper()
	for b := 0; b < flowstate.RSSTableSize; b++ {
		if eng.RSS.CoreFor(uint32(b)) == core {
			t.Fatalf("%s: RSS bucket %d steers to failed core %d", when, b, core)
		}
	}
}

// TestChaosCoreKillMidTransfer is the data-plane failure-domain
// acceptance test: one of four active fast-path cores on the server is
// killed mid-transfer under Gilbert–Elliott burst loss. The core
// watchdog must detect the frozen heartbeat within CoreTimeout, rewrite
// RSS around the corpse (and keep excluding it across a scale event),
// migrate its flows to survivors, and — after ReviveCore — fold the
// core back in. Every flow completes SHA-256-intact and post-recovery
// transfer time stays within 2× of the pre-fault baseline.
func TestChaosCoreKillMidTransfer(t *testing.T) {
	fab, srv, cli := newPair(t, coreChaosCfg())
	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}

	const nConns = 6
	const total = 64 << 10
	const chunk = total / 4
	payloads := make([][]byte, nConns)
	sums := make(map[[32]byte]int, nConns)
	for i := range payloads {
		payloads[i] = make([]byte, total)
		rand.New(rand.NewSource(int64(i + 1))).Read(payloads[i])
		sums[sha256.Sum256(payloads[i])] = i
	}

	type result struct {
		sum [32]byte
		err error
	}
	results := make(chan result, nConns)
	for i := 0; i < nConns; i++ {
		go func() {
			c, err := ln.Accept(10 * time.Second)
			if err != nil {
				results <- result{err: err}
				return
			}
			var got bytes.Buffer
			buf := make([]byte, 16<<10)
			for {
				n, err := c.ReadTimeout(buf, 30*time.Second)
				if n > 0 {
					got.Write(buf[:n])
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					results <- result{err: err}
					return
				}
			}
			results <- result{sum: sha256.Sum256(got.Bytes())}
		}()
	}

	conns := make([]*Conn, nConns)
	for i := range conns {
		c, err := cli.NewContext().Dial("10.0.0.1", 8080)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}

	waitServerEstablished(t, srv, nConns)

	// Phase A: healthy baseline, timed — the throughput yardstick the
	// post-recovery phase is held to.
	preStart := time.Now()
	for i, c := range conns {
		if _, err := c.WriteTimeout(payloads[i][:chunk], 10*time.Second); err != nil {
			t.Fatalf("healthy write on conn %d: %v", i, err)
		}
	}
	preDur := time.Since(preStart)

	// Phase B: burst loss, then kill the server core owning the most
	// flows mid-transfer.
	fab.SetBurstLoss(GEConfig{PGoodToBad: 0.02, PBadToGood: 0.3, LossGood: 0, LossBad: 0.5}, 7)
	victim, owned := victimCore(srv.Engine())
	if owned == 0 {
		t.Fatal("no server core owns any flows")
	}
	srv.Engine().KillCore(victim)

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().CoreFailures == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	st := srv.Stats()
	if st.CoreFailures != 1 {
		t.Fatalf("CoreFailures = %d, want 1", st.CoreFailures)
	}
	if !srv.CoreFailed(victim) {
		t.Fatalf("core %d not marked failed", victim)
	}
	if st.FlowsMigrated < uint64(owned) {
		t.Fatalf("FlowsMigrated = %d, want >= %d (victim's flows)", st.FlowsMigrated, owned)
	}
	if st.CoresFailed != 1 {
		t.Fatalf("CoresFailed gauge = %d, want 1", st.CoresFailed)
	}
	// A killed (exited) core's backlog is drained, not stranded.
	if st.CoreStranded != 0 {
		t.Fatalf("CoreStranded = %d, want 0 for an exited core", st.CoreStranded)
	}

	// Never-steer-to-failed, including across a scale event while down.
	assertNoBucketSteersTo(t, srv.Engine(), victim, "after failure verdict")
	srv.Engine().SetActiveCores(4)
	assertNoBucketSteersTo(t, srv.Engine(), victim, "after SetActiveCores")
	checkControl(t, "after migration", srv, cli)
	rxFrozen := srv.Engine().Stats(victim).RxPackets.Load()

	// Phase C: the transfer continues through the outage on survivors,
	// still under burst loss.
	for i, c := range conns {
		if _, err := c.WriteTimeout(payloads[i][chunk:3*chunk], 20*time.Second); err != nil {
			t.Fatalf("outage write on conn %d: %v", i, err)
		}
	}
	fab.ClearBurstLoss()
	if got := srv.Engine().Stats(victim).RxPackets.Load(); got != rxFrozen {
		t.Fatalf("failed core processed packets during outage: %d -> %d", rxFrozen, got)
	}

	// Phase D: revive; the watchdog re-admits after clean heartbeats.
	if !srv.ReviveCore(victim) {
		t.Fatal("ReviveCore failed")
	}
	deadline = time.Now().Add(5 * time.Second)
	for (srv.Stats().CoreReadmits == 0 || srv.CoreFailed(victim)) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if st := srv.Stats(); st.CoreReadmits != 1 || st.CoresFailed != 0 {
		t.Fatalf("after revive: CoreReadmits=%d CoresFailed=%d, want 1/0", st.CoreReadmits, st.CoresFailed)
	}
	checkControl(t, "after revive", srv, cli)

	// Phase E: post-recovery throughput within 2× of the healthy
	// baseline (floored: sub-millisecond baselines are scheduler noise).
	postStart := time.Now()
	for i, c := range conns {
		if _, err := c.WriteTimeout(payloads[i][3*chunk:], 10*time.Second); err != nil {
			t.Fatalf("post-recovery write on conn %d: %v", i, err)
		}
	}
	postDur := time.Since(postStart)
	budget := 2 * preDur
	if floor := 750 * time.Millisecond; budget < floor {
		budget = floor
	}
	if postDur > budget {
		t.Fatalf("post-recovery transfer took %v, budget %v (pre-fault %v)", postDur, budget, preDur)
	}
	t.Logf("pre-fault %v, post-recovery %v (budget %v), victim core %d owned %d flows",
		preDur, postDur, budget, victim, owned)

	// Every byte stream survives the migration intact.
	for _, c := range conns {
		c.Close()
	}
	seen := make(map[int]bool)
	for i := 0; i < nConns; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("receiver: %v", r.err)
			}
			id, ok := sums[r.sum]
			if !ok {
				t.Fatal("byte stream corrupted across core failure")
			}
			seen[id] = true
		case <-time.After(30 * time.Second):
			t.Logf("srv stats: %+v", srv.Stats())
			t.Fatal("transfer did not complete")
		}
	}
	if len(seen) != nConns {
		t.Fatalf("only %d distinct streams delivered, want %d", len(seen), nConns)
	}
	checkControl(t, "after transfer", srv, cli)

	// The episode is visible in the metrics exposition.
	var b strings.Builder
	if err := srv.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"tas_core_failures_total 1",
		"tas_core_readmits_total 1",
		"tas_core_panics_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestChaosCombinedFailureDomains exercises all three failure domains
// plus a lossy network in a single run: Gilbert–Elliott burst loss, an
// application context killed mid-transfer, the client's slow path
// crashed and warm-restarted, and a server fast-path core killed and
// revived. The surviving flows must complete SHA-256-intact.
func TestChaosCombinedFailureDomains(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-heavy chaos test; plain run covers it (core-kill chaos runs under -race)")
	}
	cfg := coreChaosCfg()
	cfg.MaxCores = 3
	cfg.SlowPathTimeout = 200 * time.Millisecond
	fab, srv, cli := newPair(t, cfg)
	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}

	const nConns = 4
	const victimConn = 0 // its app context is killed mid-transfer
	const total = 48 << 10
	const half = total / 2
	payloads := make([][]byte, nConns)
	sums := make(map[[32]byte]int, nConns)
	for i := range payloads {
		payloads[i] = make([]byte, total)
		rand.New(rand.NewSource(int64(100 + i))).Read(payloads[i])
		sums[sha256.Sum256(payloads[i])] = i
	}

	type result struct {
		sum [32]byte
		err error
	}
	results := make(chan result, nConns)
	for i := 0; i < nConns; i++ {
		go func() {
			c, err := ln.Accept(10 * time.Second)
			if err != nil {
				results <- result{err: err}
				return
			}
			var got bytes.Buffer
			buf := make([]byte, 16<<10)
			for {
				n, err := c.ReadTimeout(buf, 30*time.Second)
				if n > 0 {
					got.Write(buf[:n])
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					results <- result{err: err}
					return
				}
			}
			results <- result{sum: sha256.Sum256(got.Bytes())}
		}()
	}

	// The doomed app gets its own context; survivors share another.
	doomedCtx := cli.NewContext()
	liveCtx := cli.NewContext()
	conns := make([]*Conn, nConns)
	for i := range conns {
		ctx := liveCtx
		if i == victimConn {
			ctx = doomedCtx
		}
		c, err := ctx.Dial("10.0.0.1", 8080)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}

	waitServerEstablished(t, srv, nConns)

	// Everyone ships the first half healthy.
	for i, c := range conns {
		if _, err := c.WriteTimeout(payloads[i][:half], 10*time.Second); err != nil {
			t.Fatalf("healthy write on conn %d: %v", i, err)
		}
	}

	// Chaos, stacked: burst loss; app killed; slow path crashed and warm
	// restarted; fast-path core killed.
	fab.SetBurstLoss(GEConfig{PGoodToBad: 0.02, PBadToGood: 0.3, LossGood: 0, LossBad: 0.5}, 11)
	doomedCtx.Kill()

	cli.Slow().Kill()
	deadline := time.Now().Add(5 * time.Second)
	for !cli.Degraded() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !cli.Degraded() {
		t.Fatal("client fast path never entered degraded mode")
	}
	cli.Restart()
	deadline = time.Now().Add(5 * time.Second)
	for cli.Degraded() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if cli.Degraded() {
		t.Fatal("client fast path never recovered from warm restart")
	}

	victim, owned := victimCore(srv.Engine())
	if owned == 0 {
		t.Fatal("no server core owns any flows")
	}
	srv.Engine().KillCore(victim)
	deadline = time.Now().Add(5 * time.Second)
	for srv.Stats().CoreFailures == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Stats().CoreFailures == 0 {
		t.Fatal("core failure never detected")
	}
	assertNoBucketSteersTo(t, srv.Engine(), victim, "after combined-chaos verdict")
	checkControl(t, "after combined-chaos verdict", srv, cli)

	// Survivors push the second half through the wreckage.
	for i, c := range conns {
		if i == victimConn {
			continue
		}
		if _, err := c.WriteTimeout(payloads[i][half:], 30*time.Second); err != nil {
			t.Fatalf("outage write on conn %d: %v", i, err)
		}
	}
	fab.ClearBurstLoss()

	if !srv.ReviveCore(victim) {
		t.Fatal("ReviveCore failed")
	}
	deadline = time.Now().Add(5 * time.Second)
	for srv.CoreFailed(victim) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.CoreFailed(victim) {
		t.Fatal("core never re-admitted")
	}
	checkControl(t, "after combined-chaos revive", srv, cli)

	for i, c := range conns {
		if i != victimConn {
			c.Close()
		}
	}

	// Surviving flows deliver intact; the doomed flow's receiver may see
	// an abort or a truncated stream — either is acceptable, a completed
	// SHA-256 match for it is not required.
	survivors := make(map[int]bool)
	for i := 0; i < nConns; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				continue // the doomed flow's receiver erroring is expected
			}
			if id, ok := sums[r.sum]; ok {
				survivors[id] = true
			} else {
				t.Fatal("byte stream corrupted under combined chaos")
			}
		case <-time.After(30 * time.Second):
			t.Logf("srv stats: %+v", srv.Stats())
			t.Logf("cli stats: %+v", cli.Stats())
			t.Fatal("surviving transfers did not complete")
		}
	}
	for i := 0; i < nConns; i++ {
		if i != victimConn && !survivors[i] {
			t.Fatalf("surviving conn %d did not deliver intact (survivors: %v)", i, survivors)
		}
	}
	t.Logf("combined chaos: victim core %d (owned %d flows), stats %+v",
		victim, owned, srv.Stats())
}

// TestFullRequestRingStrandsNoSend: a send on a parked flow whose TX
// request the core's full request ring refuses is not lost. The flow's
// core is stalled while another flow's requests and kicks fill its
// ring, then the parked flow writes 5 bytes and the core is released:
// the refused request put the flow back on the slow path's control
// tick, whose kick delivers the bytes within a few control intervals.
func TestFullRequestRingStrandsNoSend(t *testing.T) {
	cfg := Config{MaxCores: 1, DisableCoreScaling: true, ControlInterval: 5 * time.Millisecond}
	_, srv, cli := newPair(t, cfg)
	ln, err := srv.NewContext().Listen(9095)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := ln.Accept(5 * time.Second)
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 16)
				if n, err := c.Read(buf); err == nil {
					got <- string(buf[:n])
				}
			}()
		}
	}()
	cctx := cli.NewContext()
	parked, err := cctx.Dial("10.0.0.1", 9095)
	if err != nil {
		t.Fatal(err)
	}
	filler, err := cctx.Dial("10.0.0.1", 9095)
	if err != nil {
		t.Fatal(err)
	}
	f, g := parked.c.Flow(), filler.c.Flow()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.Lock()
		p := f.Parked
		f.Unlock()
		if p {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle flow never parked")
		}
		time.Sleep(time.Millisecond)
	}

	eng := cli.Engine()
	stalled, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	eng.SetFaultHook(func(at fastpath.FaultPoint, unit int) {
		if at == fastpath.FaultCoreStep {
			once.Do(func() { close(stalled); <-release })
		}
	})
	eng.Nudge(0)
	<-stalled
	for eng.PushTxCmd(cctx.LowLevel(), fastpath.TxCmd{Op: fastpath.OpTx, Flow: g}) {
	}
	_, ringCap := eng.KickRingDepth(0)
	for i := 0; i < ringCap; i++ {
		eng.KickFlow(g)
	}
	if _, err := parked.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	close(release)
	eng.SetFaultHook(nil)

	bound := 50 * cfg.ControlInterval
	select {
	case s := <-got:
		if s != "hello" {
			t.Fatalf("server read %q, want %q", s, "hello")
		}
	case <-time.After(bound):
		t.Fatalf("send on a parked flow not delivered within %v of releasing its core", bound)
	}
}
