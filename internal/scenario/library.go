package scenario

import (
	"fmt"
	"maps"
	"slices"
	"time"

	tas "repro"
)

// Units for the library's literals.
const (
	ms  = Duration(time.Millisecond)
	sec = Duration(time.Second)
)

// drained bounds each named governed pool to exactly empty at the end of
// the run (after the settle window).
func drained(pools ...string) map[string]int64 {
	m := make(map[string]int64, len(pools))
	for _, p := range pools {
		m[p] = 0
	}
	return m
}

var noBadDesc = map[string]uint64{"bad_desc": 0}

// library holds the named, ready-to-run scenarios, each written as the
// Spec its JSON would decode to; the map key is its name, and its
// Description says what it shows.
var library = map[string]Spec{
	// The senders wedge with most of their transfer still queued, so they
	// must ride the persist timer (probes at PersistRTO backoff), not burn
	// their retransmit budgets.
	"zero-window-stall": {
		Description: "The stream server stops reading for 1s after each connection's first " +
			"length header: 16 KiB receive buffers fill, senders wedge against a zero " +
			"window and probe on the persist timer until the window reopens. Every " +
			"transfer completes intact, nothing aborts, no peer-dead verdicts.",
		Seed:     97,
		Duration: 60 * sec,
		Topology: Topology{Clients: 2, Config: tas.Config{
			RxBufSize: 16 << 10,
			// Ten probes at 100ms-base exponential backoff give the stall
			// minutes of headroom over the 1s wedge: the scenario proves
			// patience, the never-reopen variant proves the budget.
			PersistRTO: 100 * time.Millisecond, MaxPersistProbes: 10,
		}},
		Workload: Workload{Kind: "stream", Conns: 2, Transfers: 2, TransferBytes: 256 << 10, ServerStall: sec},
		Assert: Assertions{
			Intact: true, AllComplete: true, MinPersistProbes: 1, BoundPeerDead: true, BoundServerAborts: true,
			DropCauses:  noBadDesc,
			MaxPoolUsed: drained("flows", "payload_bytes", "half_open", "timers", "accept", "time_wait"),
		},
	},

	// No FIN, no RST: frames just stop. The server's flows are the
	// receiving side of bulk streams, with nothing outstanding to
	// retransmit, so only keepalives can notice.
	"silent-peer": {
		Description: "The client host is blackholed for 2s mid-stream: server-side flows go " +
			"idle with nothing to retransmit, keepalives probe and give the peer up " +
			"(peer-dead aborts, full reclamation, reaper and idle-reclaim silent), and " +
			"after the link heals the workers redial and complete everything intact.",
		Seed:     103,
		Duration: 60 * sec,
		Topology: Topology{Clients: 1, Config: tas.Config{
			KeepaliveTime: 300 * time.Millisecond, KeepaliveInterval: 100 * time.Millisecond, KeepaliveProbes: 3,
		}},
		// 20 Mbit/s paces the 8 MiB workload across ~3.4s of wire time, so
		// the 2s blackhole point lands mid-transfer even when startup and
		// the handshakes are slowed several-fold by a loaded CI machine.
		Link:     &LinkSpec{RateMbps: 20, QueuePkts: 256},
		Workload: Workload{Kind: "stream", Conns: 2, Transfers: 2, TransferBytes: 2 << 20},
		Impairments: []Impairment{
			{At: 2000 * ms, Kind: "link-down", Host: "client0"},
			{At: 4000 * ms, Kind: "link-up", Host: "client0"},
		},
		Assert: Assertions{
			Intact: true, AllComplete: true, MinPeerDead: 1, NoReaperFired: true,
			DropCauses:  noBadDesc,
			MaxPoolUsed: drained("flows", "payload_bytes", "half_open", "timers", "accept", "time_wait"),
		},
	},

	// Denied dials surface as retryable backpressure, not failures, so
	// every transfer still completes.
	"churn-storm": {
		Description: "32 workers churn reconnect-per-transfer streams through a 40-entry " +
			"flow budget: the pressure ladder oscillates between engaging (SYNs shed, " +
			"dials denied with backpressure) and releasing as flows close. All transfers " +
			"complete intact and every governed pool drains back to zero.",
		Seed:     83,
		Duration: 120 * sec,
		// 32 concurrent workers against 40 flow slots: occupancy (live +
		// closing entries) swings through the ladder's engage band, so
		// pressure is guaranteed without being a hard wall. The ladder
		// samples it once per tick, at the stack's default 1ms: slots free
		// within milliseconds, and 10ms ticks can miss every swing.
		Topology: Topology{Clients: 4, Config: tas.Config{
			Limits: tas.Limits{Flows: 40, HalfOpen: 64}, ControlInterval: time.Millisecond,
		}},
		Workload: Workload{Kind: "stream", Conns: 8, Transfers: 40, TransferBytes: 16 << 10, Reconnect: true},
		Assert: Assertions{
			Intact: true, AllComplete: true, MinPressureLevel: 1,
			MaxPoolUsed: drained("flows", "payload_bytes", "half_open", "timers", "accept"),
			DropCauses:  noBadDesc,
		},
	},

	// Per-flow grants shrink to a quarter buffer so all flows keep moving
	// instead of a few hogging the pool; occupancy stays below the reclaim
	// rung, so no established flow is ever aborted.
	"memory-squeeze": {
		Description: "Eight persistent streams with 64 KiB buffers fill ~89% of a 1.125 MiB " +
			"payload budget: the ladder climbs to the TX-clamp rung and stays there, " +
			"grants shrink, every transfer still completes intact, and the payload pool " +
			"returns to zero after the flows close.",
		Seed:     89,
		Duration: 120 * sec,
		Topology: Topology{Clients: 2, Config: tas.Config{
			RxBufSize: 64 << 10, TxBufSize: 64 << 10,
			// 8 flows x 128 KiB of buffers = 1 MiB against a 1.125 MiB cap:
			// 88.9% occupancy lands in the clamp-tx band (>=85% with the
			// default 70/55 watermarks) but under reclaim's 92.5%.
			Limits: tas.Limits{PayloadBytes: 1152 << 10},
		}},
		Workload: Workload{Kind: "stream", Conns: 4, Transfers: 24, TransferBytes: 192 << 10},
		Assert: Assertions{
			Intact: true, AllComplete: true, MinPressureLevel: 3,
			MaxPoolUsed: drained("payload_bytes", "flows", "half_open", "timers", "accept"),
			DropCauses:  noBadDesc,
		},
	},

	// Validated cookie completions prove the stateless path carried real
	// handshakes; a modest backlog keeps the half-open table bounded.
	"syn-flood": {
		Description: "50K pps spoofed SYN flood on the workload port for 2s: SYN cookies " +
			"carry legitimate handshakes statelessly, transfers stay intact, and dials " +
			"on a second port keep a bounded p99.",
		Seed:     71,
		Duration: 60 * sec,
		Topology: Topology{Clients: 2, Config: tas.Config{ListenBacklog: 64}},
		// Per-transfer churn keeps dials hitting the flooded port the
		// whole run. The 100 Mbit/s link into the server carries the 30 MiB
		// workload and the flood's ~30 Mbit/s: at least 2.6s of wire time,
		// so the workload outlasts the flood window (200ms-2.2s) however
		// fast the host is, and "legit goodput during the flood" is
		// actually during the flood.
		Link:     &LinkSpec{RateMbps: 100, QueuePkts: 256, ECNPkts: 64},
		Workload: Workload{Kind: "stream", Conns: 2, Transfers: 120, TransferBytes: 64 << 10, Reconnect: true},
		Attacks:  []Attack{{At: 200 * ms, For: 2 * sec, Kind: "syn-flood", Rate: 50000}},
		Assert: Assertions{
			Intact: true, AllComplete: true, MinCookiesValidated: 10,
			// Plain runs measure a ~40ms second-port p99; the bound leaves
			// headroom for the race detector's ~10-20× slowdown because CI
			// executes this scenario race-enabled.
			ProbeP99:    sec,
			DropCauses:  noBadDesc,
			MaxRecovery: 30 * sec,
		},
	},

	"wan": {
		Description: "Bulk transfers over a 200 Mbit/s, 5 ms, 0.2%-loss long-haul link: " +
			"the netem-grade link model must keep degradation congestion-limited.",
		Seed:        11,
		Duration:    60 * sec,
		Topology:    Topology{Clients: 2},
		Link:        &LinkSpec{RateMbps: 200, QueuePkts: 256, Delay: 5 * ms, ECNPkts: 64},
		Workload:    Workload{Kind: "stream", Conns: 2, Transfers: 2, TransferBytes: 128 << 10},
		Impairments: []Impairment{{At: 0, Kind: "loss", Rate: 0.002}},
		Assert:      Assertions{Intact: true, AllComplete: true, DropCauses: noBadDesc},
	},

	"flaky-rack": {
		Description: "Gilbert–Elliott burst loss for 1.5s, then two 50ms link flaps on client0, " +
			"under per-transfer connection churn; every byte still arrives intact.",
		Seed:     23,
		Duration: 60 * sec,
		Topology: Topology{Clients: 2},
		Workload: Workload{Kind: "stream", Conns: 2, Transfers: 4, TransferBytes: 64 << 10, Reconnect: true},
		Impairments: []Impairment{
			{At: 0, Kind: "burst-loss", GE: &GESpec{PGoodToBad: 0.02, PBadToGood: 0.2, LossBad: 0.75}},
			{At: 1500 * ms, Kind: "clear-loss"},
			{At: 1600 * ms, Kind: "flap", Host: "client0", Count: 2, Down: 50 * ms, Up: 100 * ms},
		},
		Assert: Assertions{Intact: true, AllComplete: true, MaxRecovery: 30 * sec},
	},

	// The classic incast pattern; DCTCP's CE response keeps it graceful.
	"incast-storm": {
		Description: "8 synchronized workers blast one server through a 100 Mbit/s bottleneck " +
			"with a shallow ECN queue: drop-tail pressure plus CE marks, no corruption.",
		Seed:     37,
		Duration: 60 * sec,
		Topology: Topology{Clients: 4, ServerCores: 4, ClientCores: 2},
		Link:     &LinkSpec{RateMbps: 100, QueuePkts: 64, Delay: 1 * ms, ECNPkts: 16},
		Workload: Workload{Kind: "stream", Conns: 2, Transfers: 1, TransferBytes: 256 << 10},
		Assert:   Assertions{Intact: true, AllComplete: true, DropCauses: noBadDesc},
	},

	"rolling-core-failure": {
		Description: "Two successive fast-path core crashes (busiest core each time) under " +
			"sustained transfers: flows migrate to survivors, content stays intact.",
		Seed:     41,
		Duration: 90 * sec,
		Topology: Topology{Clients: 2, ServerCores: 4, ClientCores: 2, Config: tas.Config{DisableCoreScaling: true}},
		// The 100 Mbit/s link paces the 16 MiB workload to ~1.5s+, so
		// flows are still live when each kill's detection window
		// (CoreTimeout 400ms) closes and migration has victims to move.
		Link:     &LinkSpec{RateMbps: 100, QueuePkts: 256, ECNPkts: 64},
		Workload: Workload{Kind: "stream", Conns: 2, Transfers: 4, TransferBytes: 1 << 20},
		Faults: []FaultEvent{
			{At: 250 * ms, Kind: "core-kill", Target: "server", Core: -1},
			{At: 900 * ms, Kind: "core-kill", Target: "server", Core: -1},
		},
		Assert: Assertions{
			Intact: true, AllComplete: true, MinCoreFailures: 2, MinFlowsMigrated: 1, MaxRecovery: 60 * sec,
		},
	},

	"slowpath-outage-churn": {
		Description: "Slow-path crash and contained panic, each healed by a warm restart, " +
			"under RPC connection churn: established flows keep serving, dials recover.",
		Seed:     53,
		Duration: 60 * sec,
		Topology: Topology{Clients: 2},
		Workload: Workload{Kind: "rpc", Conns: 3, Calls: 120, MsgBytes: 128, CallsPerConn: 10},
		Faults: []FaultEvent{
			{At: 300 * ms, Kind: "slowpath-kill", Target: "server"},
			{At: 900 * ms, Kind: "slowpath-restart", Target: "server"},
			{At: 1500 * ms, Kind: "slowpath-panic", Target: "server"},
			{At: 2100 * ms, Kind: "slowpath-restart", Target: "server"},
		},
		Assert: Assertions{
			Intact: true, AllComplete: true, RequireDegraded: true, MaxRecovery: 30 * sec,
			// The RPC servers transmit responses, so the server-side RTT
			// estimator accumulates sampled observations; the bound is far
			// above the µs-scale fabric RTT because CI executes this
			// scenario race-enabled (~10-20x slowdown) and the outage
			// windows delay ACK processing.
			RttP99Under: 2 * sec,
		},
	},

	"app-crash-churn": {
		Description: "Two workload app contexts crash mid-run and are reaped by the slow " +
			"path; the workers rebuild their contexts and complete every transfer.",
		Seed:     67,
		Duration: 60 * sec,
		Topology: Topology{Clients: 2},
		// The 50 Mbit/s link paces the 6 MiB workload past ~1.2s, so both
		// kills land while workers are still transferring and the reaps
		// are observable in the report.
		Link:     &LinkSpec{RateMbps: 50, QueuePkts: 256, ECNPkts: 64},
		Workload: Workload{Kind: "stream", Conns: 3, Transfers: 8, TransferBytes: 128 << 10, Reconnect: true},
		Faults: []FaultEvent{
			{At: 200 * ms, Kind: "app-kill", Target: "client0", App: 0},
			{At: 400 * ms, Kind: "app-kill", Target: "client1", App: 1},
		},
		Assert: Assertions{Intact: true, AllComplete: true, MinAppsReaped: 2, MaxRecovery: 30 * sec},
	},
}

// Lookup returns a validated copy of the named scenario, or
// ErrUnknownScenario. The copy shares no slice or map with the library,
// so a run cannot change what the next Lookup returns.
func Lookup(name string) (*Spec, error) {
	lib, ok := library[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownScenario, name, Names())
	}
	s := lib
	s.Name = name
	if lib.Link != nil {
		l := *lib.Link
		s.Link = &l
	}
	s.Impairments = slices.Clone(lib.Impairments)
	s.Faults = slices.Clone(lib.Faults)
	s.Attacks = slices.Clone(lib.Attacks)
	s.Assert.DropCauses = maps.Clone(lib.Assert.DropCauses)
	s.Assert.MaxPoolUsed = maps.Clone(lib.Assert.MaxPoolUsed)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Names lists the library's scenarios, sorted.
func Names() []string { return sortedKeys(library) }
