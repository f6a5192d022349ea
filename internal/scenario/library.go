package scenario

import (
	"fmt"
	"sync"
	"time"

	tas "repro"
)

// The library: named, ready-to-run scenarios. Each entry builds a fresh
// Spec so runs cannot leak state into the registry.
var (
	libMu  sync.RWMutex
	libMap = map[string]func() *Spec{}
)

// Register adds a named scenario (panics on duplicates: the registry is
// assembled at init time).
func Register(name string, build func() *Spec) {
	libMu.Lock()
	defer libMu.Unlock()
	if _, dup := libMap[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration %q", name))
	}
	libMap[name] = build
}

// Lookup builds the named scenario, or ErrUnknownScenario.
func Lookup(name string) (*Spec, error) {
	libMu.RLock()
	build := libMap[name]
	libMu.RUnlock()
	if build == nil {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownScenario, name, Names())
	}
	return build(), nil
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	libMu.RLock()
	defer libMu.RUnlock()
	return sortedKeys(libMap)
}

func init() {
	Register("wan", wan)
	Register("flaky-rack", flakyRack)
	Register("incast-storm", incastStorm)
	Register("rolling-core-failure", rollingCoreFailure)
	Register("slowpath-outage-churn", slowpathOutageChurn)
	Register("app-crash-churn", appCrashChurn)
	Register("syn-flood", synFlood)
	Register("churn-storm", churnStorm)
	Register("memory-squeeze", memorySqueeze)
	Register("zero-window-stall", zeroWindowStall)
	Register("silent-peer", silentPeer)
}

// zeroWindowStall: the stream server wedges — stops reading — for a
// second after consuming each connection's first length header, so
// every sender fills the 16 KiB receive buffer and hits a zero window
// with most of its transfer still queued. The senders must ride the
// persist timer (probes at PersistRTO backoff, not retransmit-budget
// burn) until the server resumes and the window reopens; everything
// then completes SHA-256-intact with no flow aborted and no peer
// misclassified as dead.
func zeroWindowStall() *Spec {
	return New("zero-window-stall").
		Describe("The stream server stops reading for 1s after each connection's first "+
			"length header: 16 KiB receive buffers fill, senders wedge against a zero "+
			"window and probe on the persist timer until the window reopens. Every "+
			"transfer completes intact, nothing aborts, no peer-dead verdicts.").
		Seed(97).
		Duration(60*time.Second).
		Clients(2).
		Config(func(c *tas.Config) {
			c.RxBufSize = 16 << 10
			// Ten probes at 100ms-base exponential backoff give the stall
			// minutes of headroom over the 1s wedge: the scenario proves
			// patience, the never-reopen variant proves the budget.
			c.PersistRTO, c.MaxPersistProbes = 100*time.Millisecond, 10
		}).
		Stream(2, 2, 256<<10).
		ServerStall(time.Second, false).
		AssertIntact().
		AssertAllComplete().
		AssertPersistProbes(1).
		AssertNoPeerDead().
		AssertServerAborts(0).
		AssertDropBound("bad_desc", 0).
		AssertPoolsDrained("flows", "payload_bytes", "half_open", "timers", "accept", "time_wait").
		MustBuild()
}

// silentPeer: the only client's link goes silently dark for two
// seconds mid-stream — no FIN, no RST, frames just stop. The server's
// established flows have nothing outstanding to retransmit (the
// receiver side of a bulk stream), so only keepalives can notice: idle
// flows are probed, the probes go unanswered, and the flows are
// aborted with a peer-dead verdict and fully reclaimed — without the
// app-liveness reaper or the governor's LRU idle-reclaim firing. When
// the link returns, the workers redial and finish every transfer
// intact.
func silentPeer() *Spec {
	return New("silent-peer").
		Describe("The client host is blackholed for 2s mid-stream: server-side flows go "+
			"idle with nothing to retransmit, keepalives probe and give the peer up "+
			"(peer-dead aborts, full reclamation, reaper and idle-reclaim silent), and "+
			"after the link heals the workers redial and complete everything intact.").
		Seed(103).
		Duration(60*time.Second).
		Clients(1).
		// 20 Mbit/s paces the 8 MiB workload across ~3.4s of wire time, so
		// the 2s blackhole point lands mid-transfer even when startup and
		// the handshakes are slowed several-fold by a loaded CI machine.
		Link(20, 256, 0, 0).
		Config(func(c *tas.Config) {
			c.KeepaliveTime, c.KeepaliveInterval, c.KeepaliveProbes = 300*time.Millisecond, 100*time.Millisecond, 3
		}).
		Stream(2, 2, 2<<20).
		LinkDown(2000*time.Millisecond, "client0").
		LinkUp(4000*time.Millisecond, "client0").
		AssertIntact().
		AssertAllComplete().
		AssertPeerDead(1).
		AssertNoReaper().
		AssertDropBound("bad_desc", 0).
		AssertPoolsDrained("flows", "payload_bytes", "half_open", "timers", "accept", "time_wait").
		MustBuild()
}

// churnStorm: sustained connection churn against a flow-table budget
// sized below the offered load. The governor's degradation ladder
// engages (cookies, then SYN shedding while the table is saturated) and
// releases as transfers complete; denied dials surface as retryable
// backpressure, not failures. The run proves graceful degradation: every
// transfer eventually completes SHA-256-intact, nothing deadlocks, and
// every governed pool returns exactly to empty afterwards.
func churnStorm() *Spec {
	return New("churn-storm").
		Describe("32 workers churn reconnect-per-transfer streams through a 40-entry "+
			"flow budget: the pressure ladder oscillates between engaging (SYNs shed, "+
			"dials denied with backpressure) and releasing as flows close. All transfers "+
			"complete intact and every governed pool drains back to zero.").
		Seed(83).
		Duration(120*time.Second).
		Clients(4).
		// 32 concurrent workers against 40 flow slots: occupancy (live +
		// closing entries) swings through the ladder's engage band, so
		// pressure is guaranteed without being a hard wall. The ladder
		// samples it once per tick, at the stack's default 1ms: slots free
		// within milliseconds, and 10ms ticks can miss every swing.
		Config(func(c *tas.Config) { c.Flows, c.HalfOpen, c.ControlInterval = 40, 64, time.Millisecond }).
		Stream(8, 40, 16<<10).
		Reconnect().
		AssertIntact().
		AssertAllComplete().
		AssertPressureLevel(1).
		AssertPoolsDrained("flows", "payload_bytes", "half_open", "timers", "accept").
		AssertDropBound("bad_desc", 0).
		MustBuild()
}

// memorySqueeze: a payload-byte budget that eight persistent bulk
// streams nearly fill (~89% occupancy), holding the ladder at the
// TX-clamp rung for the whole transfer phase: per-flow grants shrink to
// a quarter buffer so all flows keep moving instead of a few hogging
// the pool. Occupancy stays below the reclaim rung, so no established
// flow is ever aborted; transfers finish intact and the payload pool
// drains to zero when the flows close.
func memorySqueeze() *Spec {
	return New("memory-squeeze").
		Describe("Eight persistent streams with 64 KiB buffers fill ~89% of a 1.125 MiB "+
			"payload budget: the ladder climbs to the TX-clamp rung and stays there, "+
			"grants shrink, every transfer still completes intact, and the payload pool "+
			"returns to zero after the flows close.").
		Seed(89).
		Duration(120*time.Second).
		Clients(2).
		Config(func(c *tas.Config) {
			c.RxBufSize, c.TxBufSize = 64<<10, 64<<10
			// 8 flows x 128 KiB of buffers = 1 MiB against a 1.125 MiB cap:
			// 88.9% occupancy lands in the clamp-tx band (>=85% with the
			// default 70/55 watermarks) but under reclaim's 92.5%.
			c.PayloadBytes = 1152 << 10
		}).
		Stream(4, 24, 192<<10).
		AssertIntact().
		AssertAllComplete().
		AssertPressureLevel(3).
		AssertPoolsDrained("payload_bytes", "flows", "half_open", "timers", "accept").
		AssertDropBound("bad_desc", 0).
		MustBuild()
}

// synFlood: a sustained spoofed-SYN flood against the workload port
// while legitimate clients transfer SHA-256-verified streams through it.
// SYN cookies engage under the flood (validated completions prove the
// stateless path carried real handshakes), a modest backlog keeps the
// half-open table bounded, and the cross-stripe prober shows dials on a
// second port — hashing to a different handshake-table stripe — staying
// fast throughout.
func synFlood() *Spec {
	return New("syn-flood").
		Describe("50K pps spoofed SYN flood on the workload port for 2.5s: SYN cookies "+
			"carry legitimate handshakes statelessly, transfers stay intact, and dials "+
			"on a second port (different handshake stripe) keep a bounded p99.").
		Seed(71).
		Duration(60*time.Second).
		Clients(2).
		Config(func(c *tas.Config) { c.ListenBacklog = 64 }).
		// Per-transfer churn keeps dials hitting the flooded port the
		// whole run; 120 transfers per worker paces the workload past the
		// flood window so "legit goodput during the flood" is actually
		// during the flood.
		Stream(2, 120, 64<<10).
		Reconnect().
		SynFlood(200*time.Millisecond, 2*time.Second, 50000, 0).
		AssertIntact().
		AssertAllComplete().
		AssertCookiesValidated(10).
		// Plain runs measure a ~40ms cross-stripe p99; the bound leaves
		// headroom for the race detector's ~10-20× slowdown because CI
		// executes this scenario race-enabled.
		AssertProbeP99(time.Second).
		AssertDropBound("bad_desc", 0).
		AssertRecovery(30 * time.Second).
		MustBuild()
}

// wan: bulk transfers across a rate-limited, delayed, mildly lossy
// long-haul link. The link model (transmission + bounded queue +
// propagation separated) is what keeps this congestion-limited instead
// of cliff-prone.
func wan() *Spec {
	return New("wan").
		Describe("Bulk transfers over a 200 Mbit/s, 5 ms, 0.2%-loss long-haul link: "+
			"the netem-grade link model must keep degradation congestion-limited.").
		Seed(11).
		Duration(60*time.Second).
		Clients(2).
		Link(200, 256, 5*time.Millisecond, 64).
		Stream(2, 2, 128<<10).
		Loss(0, 0.002).
		AssertIntact().
		AssertAllComplete().
		AssertDropBound("bad_desc", 0).
		MustBuild()
}

// flakyRack: correlated burst loss then link flaps on one client, with
// connection churn riding through it.
func flakyRack() *Spec {
	return New("flaky-rack").
		Describe("Gilbert–Elliott burst loss for 1.5s, then two 50ms link flaps on client0, "+
			"under per-transfer connection churn; every byte still arrives intact.").
		Seed(23).
		Duration(60*time.Second).
		Clients(2).
		Stream(2, 4, 64<<10).
		Reconnect().
		BurstLoss(0, GESpec{PGoodToBad: 0.02, PBadToGood: 0.2, LossBad: 0.75}).
		ClearLoss(1500*time.Millisecond).
		Flap(1600*time.Millisecond, "client0", 2, 50*time.Millisecond, 100*time.Millisecond).
		AssertIntact().
		AssertAllComplete().
		AssertRecovery(30 * time.Second).
		MustBuild()
}

// incastStorm: many synchronized senders into one server behind a
// bottleneck link with a shallow ECN-marking queue — the classic incast
// pattern; DCTCP's CE response keeps it graceful.
func incastStorm() *Spec {
	return New("incast-storm").
		Describe("8 synchronized workers blast one server through a 100 Mbit/s bottleneck "+
			"with a shallow ECN queue: drop-tail pressure plus CE marks, no corruption.").
		Seed(37).
		Duration(60*time.Second).
		Clients(4).
		Cores(4, 2).
		Link(100, 64, 1*time.Millisecond, 16).
		Stream(2, 1, 256<<10).
		AssertIntact().
		AssertAllComplete().
		AssertDropBound("bad_desc", 0).
		MustBuild()
}

// rollingCoreFailure: two fast-path cores die in sequence mid-transfer;
// the core watchdog must migrate flows to survivors both times.
func rollingCoreFailure() *Spec {
	return New("rolling-core-failure").
		Describe("Two successive fast-path core crashes (busiest core each time) under "+
			"sustained transfers: flows migrate to survivors, content stays intact.").
		Seed(41).
		Duration(90*time.Second).
		Clients(2).
		Cores(4, 2).
		Config(func(c *tas.Config) { c.DisableCoreScaling = true }).
		// The 100 Mbit/s link paces the 16 MiB workload to ~1.5s+, so
		// flows are still live when each kill's detection window
		// (CoreTimeout 400ms) closes and migration has victims to move.
		Link(100, 256, 0, 64).
		Stream(2, 4, 1<<20).
		KillCore(250*time.Millisecond, "server", -1).
		KillCore(900*time.Millisecond, "server", -1).
		AssertIntact().
		AssertAllComplete().
		AssertCoreFailures(2).
		AssertFlowsMigrated(1).
		AssertRecovery(60 * time.Second).
		MustBuild()
}

// slowpathOutageChurn: the control plane dies and panics while an RPC
// workload churns connections; dials ride through degraded mode and the
// warm restarts.
func slowpathOutageChurn() *Spec {
	return New("slowpath-outage-churn").
		Describe("Slow-path crash and contained panic, each healed by a warm restart, "+
			"under RPC connection churn: established flows keep serving, dials recover.").
		Seed(53).
		Duration(60*time.Second).
		Clients(2).
		RPC(3, 120, 128, 10).
		KillSlowPath(300*time.Millisecond, "server").
		RestartSlowPath(900*time.Millisecond, "server").
		PanicSlowPath(1500*time.Millisecond, "server").
		RestartSlowPath(2100*time.Millisecond, "server").
		AssertIntact().
		AssertAllComplete().
		AssertDegraded().
		AssertRecovery(30 * time.Second).
		// The RPC servers transmit responses, so the server-side RTT
		// estimator accumulates sampled observations; the bound is far
		// above the µs-scale fabric RTT because CI executes this
		// scenario race-enabled (~10-20x slowdown) and the outage
		// windows delay ACK processing.
		AssertRttP99Under(2 * time.Second).
		MustBuild()
}

// appCrashChurn: workload app contexts crash and are reaped; workers
// rebuild their contexts and finish the workload.
func appCrashChurn() *Spec {
	return New("app-crash-churn").
		Describe("Two workload app contexts crash mid-run and are reaped by the slow "+
			"path; the workers rebuild their contexts and complete every transfer.").
		Seed(67).
		Duration(60*time.Second).
		Clients(2).
		// The 50 Mbit/s link paces the 6 MiB workload past ~1.2s, so both
		// kills' reap windows (AppTimeout 300ms) close while workers are
		// still transferring and the reaps are observable in the report.
		Link(50, 256, 0, 64).
		Stream(3, 8, 128<<10).
		Reconnect().
		KillApp(200*time.Millisecond, "client0", 0).
		KillApp(400*time.Millisecond, "client1", 1).
		AssertIntact().
		AssertAllComplete().
		AssertAppsReaped(2).
		AssertRecovery(30 * time.Second).
		MustBuild()
}
