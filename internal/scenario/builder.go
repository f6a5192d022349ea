package scenario

import (
	"time"

	tas "repro"
)

// Builder assembles a Spec fluently; the JSON format and the builder
// produce identical specs. Timeline entries must be added in time
// order (Build validates). Example:
//
//	spec, err := scenario.New("demo").
//	    Seed(7).
//	    Stream(2, 4, 64<<10).
//	    Loss(0, 0.02).
//	    KillCore(500*time.Millisecond, "server", -1).
//	    AssertIntact().AssertAllComplete().
//	    Build()
type Builder struct{ s Spec }

// New starts a scenario with defaults (1 client, 2+2 cores, 30s cap).
func New(name string) *Builder {
	return &Builder{s: Spec{Name: name}}
}

// Describe sets the human-readable description.
func (b *Builder) Describe(d string) *Builder { b.s.Description = d; return b }

// Seed fixes the run's random seed.
func (b *Builder) Seed(n int64) *Builder { b.s.Seed = n; return b }

// Duration caps the run.
func (b *Builder) Duration(d time.Duration) *Builder { b.s.Duration = Duration(d); return b }

// Clients sets the number of client services.
func (b *Builder) Clients(n int) *Builder { b.s.Topology.Clients = n; return b }

// Cores sizes the server and client fast-path core counts.
func (b *Builder) Cores(server, client int) *Builder {
	b.s.Topology.ServerCores = server
	b.s.Topology.ClientCores = client
	return b
}

// Config edits the services' configuration (see Topology): knobs left
// zero keep the defaults, server-side settings reach only the server,
// and Cores sets the core counts.
func (b *Builder) Config(edit func(*tas.Config)) *Builder {
	edit(&b.s.Topology.Config)
	return b
}

// Link installs the netem-grade link model: rate, bounded queue,
// propagation delay, and an optional ECN CE-mark threshold.
func (b *Builder) Link(rateMbps float64, queuePkts int, delay time.Duration, ecnPkts int) *Builder {
	b.s.Link = &LinkSpec{
		RateMbps: rateMbps, QueuePkts: queuePkts,
		Delay: Duration(delay), ECNPkts: ecnPkts,
	}
	return b
}

// Stream configures a bulk-transfer workload: conns workers per client,
// each doing transfers transfers of size bytes (SHA-256 verified).
func (b *Builder) Stream(conns, transfers, size int) *Builder {
	b.s.Workload = Workload{Kind: WorkStream, Conns: conns, Transfers: transfers, TransferBytes: size}
	return b
}

// Reconnect makes stream workers open a fresh connection per transfer
// (connection churn).
func (b *Builder) Reconnect() *Builder { b.s.Workload.Reconnect = true; return b }

// ServerStall wedges the stream server: it stops reading for d after
// consuming a connection's first length header, forcing the sender
// against a zero window. firstConnOnly restricts the wedge to the
// first accepted connection (retries land on a healthy handler).
func (b *Builder) ServerStall(d time.Duration, firstConnOnly bool) *Builder {
	b.s.Workload.ServerStall = Duration(d)
	b.s.Workload.StallFirstConnOnly = firstConnOnly
	return b
}

// RPC configures an echo-RPC workload: conns workers per client, each
// making calls calls of msgBytes, reconnecting every callsPerConn
// (0 = never).
func (b *Builder) RPC(conns, calls, msgBytes, callsPerConn int) *Builder {
	b.s.Workload = Workload{
		Kind: WorkRPC, Conns: conns, Calls: calls,
		MsgBytes: msgBytes, CallsPerConn: callsPerConn,
	}
	return b
}

// --- impairments ------------------------------------------------------

func (b *Builder) imp(at time.Duration, i Impairment) *Builder {
	i.At = Duration(at)
	b.s.Impairments = append(b.s.Impairments, i)
	return b
}

// Loss sets uniform packet loss at probability p from at on.
func (b *Builder) Loss(at time.Duration, p float64) *Builder {
	return b.imp(at, Impairment{Kind: ImpLoss, Rate: p})
}

// BurstLoss enables Gilbert–Elliott burst loss from at on.
func (b *Builder) BurstLoss(at time.Duration, ge GESpec) *Builder {
	return b.imp(at, Impairment{Kind: ImpBurstLoss, GE: &ge})
}

// ClearLoss removes uniform and burst loss at at.
func (b *Builder) ClearLoss(at time.Duration) *Builder {
	return b.imp(at, Impairment{Kind: ImpClearLoss})
}

// Partition blocks the host pair from at until Heal.
func (b *Builder) Partition(at time.Duration, hostA, hostB string) *Builder {
	return b.imp(at, Impairment{Kind: ImpPartition, A: hostA, B: hostB})
}

// Heal removes the pair's partition ("" , "" heals everything).
func (b *Builder) Heal(at time.Duration, hostA, hostB string) *Builder {
	return b.imp(at, Impairment{Kind: ImpHeal, A: hostA, B: hostB})
}

// LinkDown takes host's link down at at.
func (b *Builder) LinkDown(at time.Duration, host string) *Builder {
	return b.imp(at, Impairment{Kind: ImpLinkDown, Host: host})
}

// LinkUp restores host's link at at.
func (b *Builder) LinkUp(at time.Duration, host string) *Builder {
	return b.imp(at, Impairment{Kind: ImpLinkUp, Host: host})
}

// Flap runs count down/up cycles on host starting at at.
func (b *Builder) Flap(at time.Duration, host string, count int, down, up time.Duration) *Builder {
	return b.imp(at, Impairment{Kind: ImpFlap, Host: host, Count: count, Down: Duration(down), Up: Duration(up)})
}

// Delay sets the propagation delay at at.
func (b *Builder) Delay(at time.Duration, d time.Duration) *Builder {
	return b.imp(at, Impairment{Kind: ImpDelay, Delay: Duration(d)})
}

// Rate changes the link-model rate at at (needs Link).
func (b *Builder) Rate(at time.Duration, mbps float64) *Builder {
	return b.imp(at, Impairment{Kind: ImpRate, Rate: mbps})
}

// --- faults -----------------------------------------------------------

func (b *Builder) fault(at time.Duration, f FaultEvent) *Builder {
	f.At = Duration(at)
	b.s.Faults = append(b.s.Faults, f)
	return b
}

// KillApp crashes client target's workload context app at at.
func (b *Builder) KillApp(at time.Duration, target string, app int) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultAppKill, Target: target, App: app})
}

// StallApp wedges the context's heartbeat for d.
func (b *Builder) StallApp(at time.Duration, target string, app int, d time.Duration) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultAppStall, Target: target, App: app, For: Duration(d)})
}

// KillSlowPath crashes target's slow path at at.
func (b *Builder) KillSlowPath(at time.Duration, target string) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultSlowKill, Target: target})
}

// StallSlowPath wedges target's slow path for d.
func (b *Builder) StallSlowPath(at time.Duration, target string, d time.Duration) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultSlowStall, Target: target, For: Duration(d)})
}

// PanicSlowPath injects a contained panic into target's control loop.
func (b *Builder) PanicSlowPath(at time.Duration, target string) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultSlowPanic, Target: target})
}

// RestartSlowPath warm-restarts target's slow path at at.
func (b *Builder) RestartSlowPath(at time.Duration, target string) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultSlowRestart, Target: target})
}

// KillCore crashes target's fast-path core (-1 = busiest at fire time).
func (b *Builder) KillCore(at time.Duration, target string, core int) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultCoreKill, Target: target, Core: core})
}

// StallCore wedges target's core for d.
func (b *Builder) StallCore(at time.Duration, target string, core int, d time.Duration) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultCoreStall, Target: target, Core: core, For: Duration(d)})
}

// PanicCore injects a contained panic on target's core.
func (b *Builder) PanicCore(at time.Duration, target string, core int) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultCorePanic, Target: target, Core: core})
}

// ReviveCore relaunches target's crashed core (explicit index).
func (b *Builder) ReviveCore(at time.Duration, target string, core int) *Builder {
	return b.fault(at, FaultEvent{Kind: FaultCoreRevive, Target: target, Core: core})
}

// --- attacks ----------------------------------------------------------

// SynFlood opens a spoofed-SYN flood window on port from at for dur at
// rate packets/sec (0 = 50000; port 0 = the workload port).
func (b *Builder) SynFlood(at, dur time.Duration, rate int, port uint16) *Builder {
	b.s.Attacks = append(b.s.Attacks, Attack{
		At: Duration(at), For: Duration(dur), Kind: AttackSynFlood, Rate: rate, Port: port,
	})
	return b
}

// --- assertions -------------------------------------------------------

// AssertIntact requires SHA-256-verified content on every completed op.
func (b *Builder) AssertIntact() *Builder { b.s.Assert.Intact = true; return b }

// AssertAllComplete requires every scheduled op to finish in time.
func (b *Builder) AssertAllComplete() *Builder { b.s.Assert.AllComplete = true; return b }

// AssertRecovery bounds last-event-to-completion time.
func (b *Builder) AssertRecovery(max time.Duration) *Builder {
	b.s.Assert.MaxRecovery = Duration(max)
	return b
}

// AssertFlowsMigrated requires at least n flows migrated off failed
// cores.
func (b *Builder) AssertFlowsMigrated(n int) *Builder { b.s.Assert.MinFlowsMigrated = n; return b }

// AssertCoreFailures requires the core watchdog to have declared at
// least n failures.
func (b *Builder) AssertCoreFailures(n int) *Builder { b.s.Assert.MinCoreFailures = n; return b }

// AssertAppsReaped requires at least n app contexts reaped.
func (b *Builder) AssertAppsReaped(n int) *Builder { b.s.Assert.MinAppsReaped = n; return b }

// AssertDegraded requires the fast path to have observed a slow-path
// outage.
func (b *Builder) AssertDegraded() *Builder { b.s.Assert.RequireDegraded = true; return b }

// AssertServerAborts bounds server-side flow aborts.
func (b *Builder) AssertServerAborts(max int) *Builder {
	b.s.Assert.MaxServerAborts = max
	b.s.Assert.BoundServerAborts = true
	return b
}

// AssertDropBound bounds a server drop counter by cause name.
func (b *Builder) AssertDropBound(cause string, max uint64) *Builder {
	if b.s.Assert.DropCauses == nil {
		b.s.Assert.DropCauses = map[string]uint64{}
	}
	b.s.Assert.DropCauses[cause] = max
	return b
}

// AssertCookiesValidated requires at least n connections reconstructed
// from SYN-cookie ACKs on the server.
func (b *Builder) AssertCookiesValidated(n int) *Builder {
	b.s.Assert.MinCookiesValidated = n
	return b
}

// AssertProbeP99 enables the cross-stripe dial prober and bounds its p99
// handshake latency during attack windows.
func (b *Builder) AssertProbeP99(max time.Duration) *Builder {
	b.s.Assert.ProbeP99 = Duration(max)
	return b
}

// AssertRttP99Under bounds the server's p99 smoothed RTT across the
// whole run, read from the report's embedded telemetry time series.
func (b *Builder) AssertRttP99Under(max time.Duration) *Builder {
	b.s.Assert.RttP99Under = Duration(max)
	return b
}

// AssertPressureLevel requires the server's degradation ladder to have
// reached at least rung n during the run.
func (b *Builder) AssertPressureLevel(n int) *Builder {
	b.s.Assert.MinPressureLevel = n
	return b
}

// AssertPersistProbes requires at least n zero-window probes sent
// across all services.
func (b *Builder) AssertPersistProbes(n int) *Builder {
	b.s.Assert.MinPersistProbes = n
	return b
}

// AssertPeerDead requires at least n peer-dead verdicts (persist or
// keepalive budget exhaustion) across all services.
func (b *Builder) AssertPeerDead(n int) *Builder {
	b.s.Assert.MinPeerDead = n
	return b
}

// AssertNoPeerDead forbids peer-dead verdicts anywhere: stalls that
// resolve must never be misclassified as dead peers.
func (b *Builder) AssertNoPeerDead() *Builder {
	b.s.Assert.MaxPeerDead = 0
	b.s.Assert.BoundPeerDead = true
	return b
}

// AssertNoReaper requires dead-peer detection to have come from the
// liveness machinery alone: no app contexts reaped, no flows LRU
// idle-reclaimed, on any service.
func (b *Builder) AssertNoReaper() *Builder {
	b.s.Assert.NoReaperFired = true
	return b
}

// AssertPoolsDrained asserts that each named governed pool returns
// exactly to empty by the end of the run (after a settle window).
func (b *Builder) AssertPoolsDrained(pools ...string) *Builder {
	if b.s.Assert.MaxPoolUsed == nil {
		b.s.Assert.MaxPoolUsed = map[string]int64{}
	}
	for _, p := range pools {
		b.s.Assert.MaxPoolUsed[p] = 0
	}
	return b
}

// Build validates and returns the spec.
func (b *Builder) Build() (*Spec, error) {
	s := b.s // copy; the builder stays reusable
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// MustBuild panics on validation errors (library scenarios, tests).
func (b *Builder) MustBuild() *Spec {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}
