// Package tas is TCP Acceleration as a Service: a reproduction of the
// EuroSys 2019 paper's system in Go. It splits common-case TCP
// processing onto dedicated fast-path cores (goroutines here), runs
// connection control / congestion policy / timeouts / core scaling in a
// slow path, and gives applications an untrusted user-level stack with
// a sockets-style API over shared-memory context queues and per-flow
// payload buffers.
//
// The package is a facade over the internal packages:
//
//	fab := tas.NewFabric()                  // in-process network
//	srv, _ := fab.NewService("10.0.0.1", tas.Config{})
//	cli, _ := fab.NewService("10.0.0.2", tas.Config{})
//
//	sctx := srv.NewContext()                // one per app thread
//	ln, _ := sctx.Listen(8080)
//	go func() {
//	    c, _ := ln.Accept(0)
//	    buf := make([]byte, 64)
//	    n, _ := c.Read(buf)
//	    c.Write(buf[:n])
//	}()
//
//	cctx := cli.NewContext()
//	c, _ := cctx.Dial("10.0.0.1", 8080)
//	c.Write([]byte("ping"))
//
// Connections implement io.ReadWriteCloser. For the low-level API
// (the paper's IX-like interface) use Context.LowLevel.
package tas

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/libtas"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/shmring"
	"repro/internal/slowpath"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes one TAS service instance. Every knob is declared,
// documented, defaulted and validated once, in internal/config; the fast
// and slow path read the same value.
type Config = config.Config

// Limits are the resource governor's pool capacities, per-app quotas and
// pressure watermarks, embedded in Config.
type Limits = resource.Limits

// TelemetryConfig configures the observability subsystem (see
// internal/telemetry).
type TelemetryConfig = telemetry.Config

// Fabric is the in-process network connecting services.
type Fabric struct{ f *fabric.Fabric }

// NewFabric creates an empty network.
func NewFabric() *Fabric { return &Fabric{f: fabric.New()} }

// SetLoss makes the fabric drop packets at the given probability
// (failure injection).
func (f *Fabric) SetLoss(p float64) { f.f.SetLossRate(p) }

// GEConfig parameterizes the Gilbert–Elliott burst-loss model.
type GEConfig = stats.GEConfig

// DefaultGEConfig returns bursty-loss parameters (~9% stationary time
// in the bad state, 75% loss while there).
func DefaultGEConfig() GEConfig { return stats.DefaultGEConfig() }

// SetLinkDown takes a host's link down (down=true) or back up: while
// down, every packet to or from addr is dropped silently.
func (f *Fabric) SetLinkDown(addr string, down bool) error {
	ip, err := ParseIP(addr)
	if err != nil {
		return err
	}
	f.f.SetLinkDown(ip, down)
	return nil
}

// Partition drops all packets between the two hosts (both directions)
// until Heal or HealAll.
func (f *Fabric) Partition(a, b string) error {
	ipa, err := ParseIP(a)
	if err != nil {
		return err
	}
	ipb, err := ParseIP(b)
	if err != nil {
		return err
	}
	f.f.Partition(ipa, ipb)
	return nil
}

// Heal removes a partition between two hosts.
func (f *Fabric) Heal(a, b string) error {
	ipa, err := ParseIP(a)
	if err != nil {
		return err
	}
	ipb, err := ParseIP(b)
	if err != nil {
		return err
	}
	f.f.Heal(ipa, ipb)
	return nil
}

// HealAll removes all partitions and brings all links up.
func (f *Fabric) HealAll() { f.f.HealAll() }

// SetBurstLoss enables seeded Gilbert–Elliott burst loss on the whole
// fabric (correlated drop bursts rather than uniform loss).
func (f *Fabric) SetBurstLoss(cfg GEConfig, seed int64) { f.f.SetBurstLoss(cfg, seed) }

// ClearBurstLoss disables burst loss.
func (f *Fabric) ClearBurstLoss() { f.f.ClearBurstLoss() }

// Reseed re-seeds the fabric's random source (the uniform-loss process)
// so a run's loss decisions replay deterministically from a scenario
// seed instead of the construction-time default.
func (f *Fabric) Reseed(seed int64) { f.f.Reseed(seed) }

// LinkConfig parameterizes the netem-grade link model: transmission
// (RateBps), bounded queueing (QueueCap packets, drop-tail, optional
// ECN CE marking past ECNThreshold), and propagation (PropDelay)
// modeled separately per destination.
type LinkConfig = fabric.LinkConfig

// SetLink installs (or reconfigures, mid-run) the link model on every
// destination. Without it delivery is a synchronous hand-off — infinite
// bandwidth, so bursts arrive as bursts; with it, packets serialize at
// the configured rate through a bounded queue and then wait out the
// propagation delay, giving congestion-limited behavior under load.
func (f *Fabric) SetLink(cfg LinkConfig) { f.f.SetLink(cfg) }

// ClearLink removes the link model.
func (f *Fabric) ClearLink() { f.f.ClearLink() }

// FabricStats counts what the fabric did to traffic.
type FabricStats struct {
	Delivered      uint64 `json:"delivered"`
	Dropped        uint64 `json:"dropped"`
	QueueDrops     uint64 `json:"queue_drops"`
	CEMarks        uint64 `json:"ce_marks"`
	DownDrops      uint64 `json:"down_drops"`
	PartitionDrops uint64 `json:"partition_drops"`
	BurstDrops     uint64 `json:"burst_drops"`
}

// Stats snapshots the fabric's delivery and drop counters.
func (f *Fabric) Stats() FabricStats {
	return FabricStats{
		Delivered:      f.f.Delivered.Load(),
		Dropped:        f.f.Dropped.Load(),
		QueueDrops:     f.f.QueueDrops.Load(),
		CEMarks:        f.f.CEMarks.Load(),
		DownDrops:      f.f.DownDrops.Load(),
		PartitionDrops: f.f.PartitionDrops.Load(),
		BurstDrops:     f.f.BurstDrops.Load(),
	}
}

// CaptureTo streams a pcap capture of every packet crossing the fabric
// into w (readable by tcpdump/Wireshark) until stop is called. One
// capture at a time. stop reports the first write error the capture
// hit, if any — a non-nil result means the file is truncated.
func (f *Fabric) CaptureTo(w io.Writer) (stop func() error, err error) {
	pw, err := trace.NewWriter(w)
	if err != nil {
		return nil, err
	}
	f.f.SetTap(func(ts int64, pkt *protocol.Packet) { pw.WritePacket(ts, pkt) })
	return func() error {
		f.f.SetTap(nil)
		return pw.Close()
	}, nil
}

// ParseIP parses a dotted-quad IPv4 address: four decimal octets, no
// leading zeros, nothing before or after.
func ParseIP(s string) (protocol.IPv4, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("tas: bad IPv4 %q: %w", s, err)
	}
	if !a.Is4() {
		return 0, fmt.Errorf("tas: bad IPv4 %q: not an IPv4 address", s)
	}
	b := a.As4()
	return protocol.MakeIPv4(b[0], b[1], b[2], b[3]), nil
}

// Service is one host's TAS instance: fast path + slow path attached to
// the fabric at an IP address.
type Service struct {
	IP    protocol.IPv4
	eng   *fastpath.Engine
	stack *libtas.Stack
	fab   *Fabric
	telem *telemetry.Telemetry // nil when telemetry is off
	gov   *resource.Governor

	restarts atomic.Uint64
}

// NewService creates, attaches, and starts a TAS instance at addr
// (dotted quad).
func (f *Fabric) NewService(addr string, cfg Config) (*Service, error) {
	ip, err := ParseIP(addr)
	if err != nil {
		return nil, err
	}
	// Validate before anything is built: a rejected config must leave no
	// host attached to the fabric.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("tas: invalid config: %w", err)
	}
	cfg.LocalIP, cfg.LocalMAC = ip, protocol.MACForIPv4(ip)
	if link := f.f.LinkRate(); link > 0 && cfg.NewController == nil {
		cfg.NewController = config.Controller(cfg.CongestionControl, link)
	}
	cfg.Fill()
	// The governor always runs — accounting is how leaks are caught —
	// but only capped pools can deny admission or raise pressure.
	cfg.Gov = resource.New(cfg.Limits)

	// The fabric handler closes over the engine variable, which is
	// assigned immediately after attaching; no packets flow until a
	// peer sends to this IP.
	var eng *fastpath.Engine
	nic := f.f.Attach(ip, func(pkt *protocol.Packet) {
		if eng != nil {
			eng.Input(pkt)
		}
	})
	eng = fastpath.NewEngine(nic, cfg)
	telem := eng.Telemetry()
	if telem != nil {
		// The "pressure" ring is materialized on the first transition,
		// not eagerly: an unpressured run leaves no synthetic flow in
		// the recorder.
		cfg.Gov.OnTransition(func(from, to int) {
			kind := telemetry.FEPressureUp
			if to < from {
				kind = telemetry.FEPressureDown
			}
			telem.Recorder.Ring("pressure").Record(kind, 0, 0, uint32(from), uint64(to))
		})
	}

	slow := slowpath.New(eng, cfg)
	eng.Start()
	if cfg.DisableCoreScaling {
		// With scaling off nothing would ever grow the active set past
		// the initial single core; pin the full complement so every
		// configured core carries traffic (and a core-failure re-steer
		// has survivors to steer to).
		eng.SetActiveCores(cfg.MaxCores)
	}
	slow.Start()
	s := &Service{IP: ip, eng: eng, fab: f, telem: telem, gov: cfg.Gov}
	s.stack = libtas.NewStack(eng, slow)
	if telem != nil {
		s.registerMetrics()
	}
	return s, nil
}

// RecoveryStats reports what a warm restart rebuilt (see
// slowpath.Recover).
type RecoveryStats = slowpath.RecoveryStats

// Restart warm-restarts the slow path: the current instance is killed
// (a no-op if it already crashed), and a fresh one reconstructs its
// control state — congestion/RTO entries, FIN timers, listener map —
// from the shared flow table, payload-ring positions, rate buckets, and
// listener registry the engine kept serving throughout the outage.
// Established connections are untouched; the fast path's watchdog
// observes the resumed heartbeat and leaves degraded mode. The successor
// counts into its predecessor's counter block, so every exported series
// stays monotonic across the restart.
func (s *Service) Restart() RecoveryStats {
	old := s.stack.Slow()
	old.Kill()
	ns := old.Successor()
	rep := ns.Recover()
	ns.Start()
	s.stack.SetSlow(ns)
	s.restarts.Add(1)
	return rep
}

// Restarts returns how many times the slow path has been warm-restarted.
func (s *Service) Restarts() uint64 { return s.restarts.Load() }

// Degraded reports whether the fast path currently considers the slow
// path down.
func (s *Service) Degraded() bool { return s.eng.Degraded() }

// ReviveCore relaunches a crashed fast-path core's goroutine. Steering
// does not resume immediately: the slow path folds the core back into
// RSS only after it observes clean heartbeats from the new incarnation
// (the normal scale-up path). Returns false if the goroutine is still
// running.
func (s *Service) ReviveCore(i int) bool { return s.eng.ReviveCore(i) }

// CoreFailed reports whether fast-path core i is currently excluded
// from RSS steering by the core watchdog.
func (s *Service) CoreFailed(i int) bool { return s.eng.CoreFailed(i) }

// Telemetry returns the service's telemetry hub (registry, flight
// recorder, cycle accounts), or nil when telemetry is off.
func (s *Service) Telemetry() *telemetry.Telemetry { return s.telem }

// Metrics returns the service's metrics registry, or nil when telemetry
// is off. Serve Telemetry().Handler() for the HTTP exposition.
func (s *Service) Metrics() *telemetry.Registry {
	if s.telem == nil {
		return nil
	}
	return s.telem.Registry
}

// registerMetrics exposes the service's pre-existing atomic counters,
// drop accounting, live gauges, and cycle accounts through the unified
// registry. Everything reads lock-free or snapshot-at-scrape; nothing
// here adds hot-path work.
func (s *Service) registerMetrics() {
	r := s.telem.Registry
	eng := s.eng

	// Per-core fast-path activity (the hand-off account included) and
	// the application waits: one series per tagged field.
	for i := 0; i < eng.MaxCores(); i++ {
		lbl := telemetry.L("core", fmt.Sprintf("%d", i))
		registerAtomics(r, eng.Stats(i), lbl)
		// The two ways a core's goroutine is not working.
		r.CounterFunc("tas_fastpath_core_park_seconds_total", "Time a fast-path core spent parked on its doorbell (or not running).",
			func() float64 { parked, _ := eng.CoreIdleNanos(i); return float64(parked) / 1e9 }, lbl)
		r.CounterFunc("tas_fastpath_core_poll_seconds_total", "Time a fast-path core spent polling empty queues.",
			func() float64 { _, polled := eng.CoreIdleNanos(i); return float64(polled) / 1e9 }, lbl)
	}
	registerAtomics(r, &s.stack.Waits)

	// Drop/shed accounting by cause and the slow-path lifecycle counters:
	// one series per tagged field of the two structs. The slow path is
	// read through s.Slow() at scrape time, not a captured pointer, so the
	// series stay live across warm restarts.
	registerCounters(r, eng.Drops)
	registerCounters(r, func() slowpath.Counters { return s.Slow().Counters() })

	// Control-set occupancy: flows the control tick visits each interval
	// against flows parked off it (list lengths, read at scrape time).
	r.GaugeFunc("tas_slowpath_flows", "Established flows on the slow-path control tick.",
		func() float64 { a, _ := s.Slow().ControlSet(); return float64(a) },
		telemetry.L("state", "active"))
	r.GaugeFunc("tas_slowpath_flows", "Established flows parked off the slow-path control tick.",
		func() float64 { _, p := s.Slow().ControlSet(); return float64(p) },
		telemetry.L("state", "parked"))

	// The close-lifecycle gauges.
	r.GaugeFunc("tas_flows_time_wait", "TIME_WAIT quarantine entries currently held.",
		func() float64 { return float64(s.Slow().TimeWaitCount()) })
	r.GaugeFunc("tas_flows_fin_wait2", "Flows currently in FIN_WAIT_2 (our FIN acked, peer's FIN pending).",
		func() float64 { return float64(s.Slow().FinWait2Count()) })

	// Control-plane failure domain: degraded-mode gauge, outage counts,
	// and the outage-duration histogram (observed at recovery).
	r.GaugeFunc("tas_slowpath_degraded", "1 while the fast path considers the slow path down.",
		func() float64 {
			if eng.Degraded() {
				return 1
			}
			return 0
		})
	r.CounterFunc("tas_slowpath_outages_total", "Slow-path outages detected by the fast-path watchdog.",
		func() float64 { return float64(eng.Outages().Outages) })
	r.CounterFunc("tas_slowpath_restarts_total", "Slow-path warm restarts performed.",
		func() float64 { return float64(s.restarts.Load()) })
	if h := eng.OutageHistogram(); h != nil {
		r.RegisterLogHist("tas_slowpath_outage_us",
			"Duration of slow-path outages, observed when the heartbeat resumes (microseconds).", h)
	}

	// Data-plane failure domain: per-core failed gauges (the watchdog's
	// failure / migration / re-admission counters are slow-path counters).
	for i := 0; i < eng.MaxCores(); i++ {
		r.GaugeFunc("tas_core_failed", "1 while the core is excluded from RSS steering.",
			func() float64 {
				if eng.CoreFailed(i) {
					return 1
				}
				return 0
			}, telemetry.L("core", fmt.Sprintf("%d", i)))
	}
	r.CounterFunc("tas_core_panics_total", "Fast-path run-loop panics contained by the per-core harness.",
		func() float64 { return float64(eng.CoreFaults().Panics) })

	// RFC 5961 challenge-ACK valve (global, shared fast/slow path).
	r.CounterFunc("tas_challenge_acks_total", "RFC 5961 challenge ACKs transmitted.",
		func() float64 { return float64(challengeSent(eng)) })
	r.CounterFunc("tas_challenge_acks_limited_total", "Challenge ACKs suppressed by the global rate limit.",
		func() float64 { return float64(challengeSuppressed(eng)) })

	// Resource governor: degradation-ladder level, per-pool occupancy
	// against capacity, and per-rung engagement/shed accounting. All
	// atomic loads at scrape time.
	gov := s.gov
	r.GaugeFunc("tas_pressure_level", "Current degradation-ladder rung (0 normal, 1 cookies, 2 shed-syn, 3 clamp-tx, 4 reclaim).",
		func() float64 { return float64(gov.Level()) })
	r.GaugeFunc("tas_pressure_peak_level", "Highest degradation-ladder rung reached since start.",
		func() float64 { return float64(gov.PeakLevel()) })
	r.GaugeFunc("tas_pressure_ratio", "Occupancy fraction of the hottest capped pool (0-1).",
		gov.Pressure)
	for p := resource.Pool(0); p < resource.NumPools; p++ {
		lbl := telemetry.L("pool", p.String())
		r.GaugeFunc("tas_pool_used", "Governed pool occupancy (bytes for payload_bytes, slots otherwise).",
			func() float64 { return float64(gov.Used(p)) }, lbl)
		r.GaugeFunc("tas_pool_cap", "Governed pool capacity (0 = uncapped).",
			func() float64 { return float64(gov.Cap(p)) }, lbl)
		r.GaugeFunc("tas_pool_peak", "Governed pool high-water mark.",
			func() float64 { return float64(gov.Peak(p)) }, lbl)
		r.CounterFunc("tas_pool_rejects_total", "Admissions denied because the global pool was exhausted.",
			func() float64 { return float64(gov.Snapshot().Rejects[p]) }, lbl)
		r.CounterFunc("tas_pool_underflow_total", "Un-charges that drove the pool negative and were clamped at zero (an accounting-order bug).",
			func() float64 { return float64(gov.Snapshot().Underflows[p]) }, lbl)
	}
	for k := 1; k < resource.NumLevels; k++ {
		lbl := telemetry.L("rung", resource.LevelName(k))
		r.CounterFunc("tas_pressure_engaged_total", "Times the ladder engaged a rung.",
			func() float64 { return float64(gov.Snapshot().Engaged[k]) }, lbl)
		r.CounterFunc("tas_pressure_sheds_total", "Shed/degradation actions taken while a rung was engaged.",
			func() float64 { return float64(gov.Snapshot().Shed[k]) }, lbl)
	}
	r.CounterFunc("tas_pressure_quota_rejects_total", "Admissions denied by a per-app quota.",
		func() float64 { return float64(gov.Snapshot().QuotaRejects) })

	// Live gauges.
	r.GaugeFunc("tas_flows_live", "Flows currently installed in the flow table.",
		func() float64 { return float64(eng.Table.Len()) })
	r.GaugeFunc("tas_active_cores", "Fast-path cores currently receiving RSS traffic.",
		func() float64 { return float64(eng.ActiveCores()) })
	r.GaugeFunc("tas_live_payload_bytes", "Payload-buffer bytes reserved and not reclaimed.",
		func() float64 { return float64(shmring.LivePayloadBytes()) })

	// Latency observatory: sampled hot-path distributions exposed as
	// summary quantiles (µs).
	r.RegisterLogHist("tas_rtt_us",
		"Smoothed per-flow RTT sampled on ACK processing (microseconds).", s.telem.RTT)
	r.RegisterLogHist("tas_rttvar_us",
		"Smoothed per-flow RTT variance sampled on ACK processing (microseconds).", s.telem.RTTVar)
	r.RegisterLogHist("tas_handshake_us",
		"Handshake completion latency, SYN to established (microseconds).", s.telem.Handshake)
	r.RegisterLogHist("tas_wakeup_us",
		"App wakeup-to-ready latency: fast-path wake to data visible in libtas (microseconds).",
		s.telem.Wakeup)

	// Queue occupancy: every shmring plus accept/half-open backlogs,
	// read at scrape time from the rings' approximate Len (no hot-path
	// cost). One metric name, ring/core labels.
	depth := func(ring string, read func() float64, labels ...telemetry.Label) {
		lbls := append([]telemetry.Label{telemetry.L("ring", ring)}, labels...)
		r.GaugeFunc("tas_ring_depth", "Queue occupancy by ring and core.", read, lbls...)
	}
	for i := 0; i < eng.MaxCores(); i++ {
		lbl := telemetry.L("core", fmt.Sprintf("%d", i))
		depth("rx", func() float64 { d, _ := eng.RxRingDepth(i); return float64(d) }, lbl)
		depth("kick", func() float64 { d, _ := eng.KickRingDepth(i); return float64(d) }, lbl)
		// Event queues are aggregated across live app contexts per core:
		// contexts come and go with applications, so per-context series
		// would churn the registry.
		depth("ctx_ev", func() float64 {
			var n int
			for _, ctx := range eng.Contexts() {
				if ctx != nil && i < ctx.Cores() {
					n += ctx.EventQueueLen(i)
				}
			}
			return float64(n)
		}, lbl)
	}
	depth("excq", func() float64 { d, _ := eng.ExcqDepth(); return float64(d) })
	r.GaugeFunc("tas_ring_capacity", "Ring capacity by ring (per core).",
		func() float64 { _, c := eng.RxRingDepth(0); return float64(c) }, telemetry.L("ring", "rx"))
	r.GaugeFunc("tas_ring_capacity", "Ring capacity by ring (per core).",
		func() float64 { _, c := eng.ExcqDepth(); return float64(c) }, telemetry.L("ring", "excq"))
	r.GaugeFunc("tas_accept_backlog", "Established connections waiting in accept queues.",
		func() float64 { return float64(s.Slow().AcceptBacklog()) })
	r.GaugeFunc("tas_half_open", "Half-open handshakes held by the slow path.",
		func() float64 { return float64(s.Slow().HalfOpenCount()) })

	// Per-core per-module cycle accounts.
	s.telem.Cycles.Register(r)

	// Start the registry time-series recorder after every series above
	// is registered, so the column set is stable from the first point.
	if s.telem.Series != nil {
		s.telem.Series.Start()
	}
}

// registerCounters registers one counter series per field of the stats
// struct read returns, as the field's tag declares it: `metric` names the
// series ("-": none) and `cause` labels it; a field with no `metric` but
// a `drop` tag is the tas_drops_total series of that cause. The structs
// are slowpath.Counters and fastpath.DropStats, which document the tags.
func registerCounters[T any](r *telemetry.Registry, read func() T) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	for i := 0; i < t.NumField(); i++ {
		tag := t.Field(i).Tag
		name, help, cause := tag.Get("metric"), tag.Get("help"), tag.Get("cause")
		if name == "" && tag.Get("drop") != "" {
			name, help, cause = "tas_drops_total", "Work refused by cause: "+help, tag.Get("drop")
		}
		if name == "" || name == "-" {
			continue
		}
		var labels []telemetry.Label
		if cause != "" {
			labels = append(labels, telemetry.L("cause", cause))
		}
		r.CounterFunc(name, help, func() float64 { return float64(reflect.ValueOf(read()).Field(i).Uint()) }, labels...)
	}
}

// registerAtomics registers one counter series, with labels, per
// `metric`-tagged atomic.Uint64 field of the live counter block at
// block (a pointer to a struct that outlives the registry).
func registerAtomics(r *telemetry.Registry, block any, labels ...telemetry.Label) {
	v := reflect.ValueOf(block).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		if tag.Get("metric") == "" {
			continue
		}
		ctr := v.Field(i).Addr().Interface().(*atomic.Uint64)
		r.CounterFunc(tag.Get("metric"), tag.Get("help"), func() float64 { return float64(ctr.Load()) }, labels...)
	}
}

// Close stops the service and detaches it from the fabric.
func (s *Service) Close() {
	if s.telem != nil && s.telem.Series != nil {
		s.telem.Series.Stop()
	}
	s.fab.f.Detach(s.IP)
	s.Slow().Stop()
	s.eng.Stop()
}

// Engine exposes the fast-path engine (stats, core counts, KillCore,
// the fault hook) for tools, tests and benchmarks.
func (s *Service) Engine() *fastpath.Engine { return s.eng }

// Slow exposes the current slow-path instance (reaper and admission
// counters, Kill) for tools and tests. Note that Restart swaps
// the instance; do not cache the pointer across restarts.
func (s *Service) Slow() *slowpath.Slowpath { return s.stack.Slow() }

// ServiceStats is a consolidated robustness snapshot of one service: the
// slow path's counters and the fast path's drop counters under their
// owners' names, plus what only the service can add — limiter and
// watchdog counts, live gauges, and the governor's state.
type ServiceStats struct {
	slowpath.Counters  // connection lifecycle, reaper, liveness, cookies, failure domains
	fastpath.DropStats // work the fast path refused, by cause

	ChallengeAcksSent    uint64 // RFC 5961 challenge ACKs transmitted
	ChallengeAcksLimited uint64 // challenge ACKs suppressed by the global rate limit
	SlowPathOutages      uint64 // outages detected by the fast-path watchdog
	CorePanics           uint64 // fast-path run-loop panics contained

	// Live gauges.
	FlowsTimeWait    int   // TIME_WAIT quarantine entries held
	FlowsFinWait2    int   // flows currently in FIN_WAIT_2
	CoresFailed      int   // cores currently excluded from steering
	FlowsLive        int   // flows currently installed in the flow table
	LivePayloadBytes int64 // payload-buffer bytes reserved and not reclaimed

	// Resource-governor state: the degradation ladder and unified pool
	// accounting. Maps are keyed by pool name (payload_bytes, flows,
	// half_open, contexts, timers, accept, time_wait) and rung name
	// (cookies, shed_syn, clamp_tx, reclaim).
	PressureLevel     int               // current degradation-ladder rung (0 = normal)
	PeakPressureLevel int               // highest rung reached since start
	Pressure          float64           // hottest capped pool occupancy fraction (0-1)
	PoolUsed          map[string]int64  // current occupancy per pool
	PoolCap           map[string]int64  // configured capacity per pool (0 = uncapped)
	PoolRejects       map[string]uint64 // global-pool admission denials per pool
	PressureSheds     map[string]uint64 // shed actions per engaged rung
	QuotaRejects      uint64            // per-app quota denials
}

// Drop returns the refusal counter a drop cause names — the `drop` tags
// of fastpath.DropStats and slowpath.Counters — and whether there is one.
func (st ServiceStats) Drop(cause string) (uint64, bool) {
	v := reflect.ValueOf(st)
	for _, f := range reflect.VisibleFields(v.Type()) {
		if d := f.Tag.Get("drop"); d != "" && d == cause {
			return v.FieldByIndex(f.Index).Uint(), true
		}
	}
	return 0, false
}

// Stats snapshots the service's robustness counters and gauges.
func (s *Service) Stats() ServiceStats {
	slow := s.Slow()
	gs := s.gov.Snapshot()
	st := ServiceStats{
		Counters:  slow.Counters(),
		DropStats: s.eng.Drops(),

		ChallengeAcksSent:    challengeSent(s.eng),
		ChallengeAcksLimited: challengeSuppressed(s.eng),
		SlowPathOutages:      s.eng.Outages().Outages,
		CorePanics:           s.eng.CoreFaults().Panics,

		FlowsTimeWait:    slow.TimeWaitCount(),
		FlowsFinWait2:    slow.FinWait2Count(),
		CoresFailed:      s.eng.CoreFaults().Failed,
		FlowsLive:        s.eng.Table.Len(),
		LivePayloadBytes: shmring.LivePayloadBytes(),

		PressureLevel:     gs.Level,
		PeakPressureLevel: gs.PeakLevel,
		Pressure:          gs.Pressure,
		PoolUsed:          make(map[string]int64, resource.NumPools),
		PoolCap:           make(map[string]int64, resource.NumPools),
		PoolRejects:       make(map[string]uint64, resource.NumPools),
		PressureSheds:     make(map[string]uint64, resource.NumLevels-1),
		QuotaRejects:      gs.QuotaRejects,
	}
	for p := resource.Pool(0); p < resource.NumPools; p++ {
		st.PoolUsed[p.String()] = gs.Used[p]
		st.PoolCap[p.String()] = gs.Cap[p]
		st.PoolRejects[p.String()] = gs.Rejects[p]
	}
	for k := 1; k < resource.NumLevels; k++ {
		st.PressureSheds[resource.LevelName(k)] = gs.Shed[k]
	}
	return st
}

// Governor exposes the service's unified resource governor (pool
// accounting and the degradation ladder) for tools and tests.
func (s *Service) Governor() *resource.Governor { return s.gov }

// challengeSent / challengeSuppressed read the engine's global RFC 5961
// challenge-ACK limiter, which is nil when ChallengeAckPerSec < 0.
func challengeSent(e *fastpath.Engine) uint64 {
	if e.Challenge == nil {
		return 0
	}
	return e.Challenge.SentCount.Load()
}

func challengeSuppressed(e *fastpath.Engine) uint64 {
	if e.Challenge == nil {
		return 0
	}
	return e.Challenge.Suppressed.Load()
}

// ActiveCores returns the number of fast-path cores currently steered
// to by RSS.
func (s *Service) ActiveCores() int { return s.eng.ActiveCores() }

// Context is one application thread's attachment to a service.
type Context struct {
	svc *Service
	ctx *libtas.Context
}

// NewContext allocates an application context (one per app thread).
func (s *Service) NewContext() *Context {
	return &Context{svc: s, ctx: s.stack.NewContext()}
}

// LowLevel exposes the IX-like low-level API: the raw fast-path context
// with direct event-queue access.
func (c *Context) LowLevel() *fastpath.Context { return c.ctx.FP() }

// Dial connects to addr (dotted quad) : port. Blocks up to 5s.
func (c *Context) Dial(addr string, port uint16) (*Conn, error) {
	return c.DialTimeout(addr, port, 5*time.Second)
}

// DialTimeout connects with an explicit handshake deadline (0 = wait
// for the slow path's own retry budget to decide). Returns ErrTimeout
// (see the ErrTimeout helper) when the handshake retry budget or the
// deadline expires, and a connection-refused error on peer RST.
func (c *Context) DialTimeout(addr string, port uint16, timeout time.Duration) (*Conn, error) {
	ip, err := ParseIP(addr)
	if err != nil {
		return nil, err
	}
	lc, err := c.ctx.Dial(ip, port, timeout)
	if err != nil {
		return nil, err
	}
	return &Conn{c: lc}, nil
}

// Listen binds a listener on port for this context with the service's
// default backlog.
func (c *Context) Listen(port uint16) (*Listener, error) {
	ll, err := c.ctx.Listen(port)
	if err != nil {
		return nil, err
	}
	return &Listener{l: ll}, nil
}

// ListenBacklog binds a listener with an explicit admission bound:
// half-open handshakes plus not-yet-accepted connections may total at
// most backlog; SYNs beyond it are shed (0 = service default).
func (c *Context) ListenBacklog(port uint16, backlog int) (*Listener, error) {
	ll, err := c.ctx.ListenBacklog(port, backlog)
	if err != nil {
		return nil, err
	}
	return &Listener{l: ll}, nil
}

// Kill is the application exiting abruptly, as a crash would: the slow
// path is told at once and reaps every resource the context held.
// Idempotent, and safe after Close.
func (c *Context) Kill() { c.ctx.KillApp() }

// Listener accepts inbound connections.
type Listener struct{ l *libtas.Listener }

// Accept waits up to timeout (0 = forever) for a connection.
func (l *Listener) Accept(timeout time.Duration) (*Conn, error) {
	lc, err := l.l.Accept(timeout)
	if err != nil {
		return nil, err
	}
	return &Conn{c: lc}, nil
}

// Close stops the listener.
func (l *Listener) Close() { l.l.Close() }

// Conn is a TAS TCP connection; it implements io.ReadWriteCloser.
type Conn struct{ c *libtas.Conn }

// Read reads at least one byte (blocking) into p; returns io.EOF after
// the peer closes and the buffer drains.
func (c *Conn) Read(p []byte) (int, error) { return c.c.Recv(p, 0) }

// Write writes all of p, blocking on flow control as needed.
func (c *Conn) Write(p []byte) (int, error) { return c.c.Send(p, 0) }

// Close tears the connection down gracefully.
func (c *Conn) Close() error { return c.c.Close() }

// ReadZeroCopy exposes readable bytes of the receive buffer in place
// (up to max); consume returns how many bytes it finished with. Returns
// the consumed count.
func (c *Conn) ReadZeroCopy(max int, consume func(first, second []byte) int) int {
	return c.c.RecvZeroCopy(max, consume)
}

// WriteZeroCopy assembles up to max bytes directly in the transmit
// buffer via fill (which returns the bytes produced) and notifies the
// fast path. Returns the committed count.
func (c *Conn) WriteZeroCopy(max int, fill func(first, second []byte) int) (int, error) {
	return c.c.SendZeroCopy(max, fill)
}

// Rebind moves the connection to another context of the same service —
// the accept-loop handoff pattern: one context accepts, then each
// connection is rebound to its own per-goroutine context before use.
func (c *Conn) Rebind(ctx *Context) { c.c.Rebind(ctx.ctx) }

// Stats snapshots the connection's fast-path counters.
func (c *Conn) Stats() libtas.ConnStats { return c.c.Stats() }

// ResizeBuffers grows the connection's payload buffers at runtime.
func (c *Conn) ResizeBuffers(rx, tx int) { c.c.ResizeBuffers(rx, tx) }

// Buffered returns bytes available to Read without blocking.
func (c *Conn) Buffered() int { return c.c.Buffered() }

// ReadTimeout is Read with a deadline (0 = forever).
func (c *Conn) ReadTimeout(p []byte, d time.Duration) (int, error) { return c.c.Recv(p, d) }

// WriteTimeout is Write with a deadline (0 = forever).
func (c *Conn) WriteTimeout(p []byte, d time.Duration) (int, error) { return c.c.Send(p, d) }

// ErrTimeout reports whether err is a TAS timeout.
func ErrTimeout(err error) bool { return errors.Is(err, libtas.ErrTimeout) }

// ErrReset reports whether err is a connection abort: the peer reset
// the connection, or the retransmission budget was exhausted against a
// dead or unreachable peer.
func ErrReset(err error) bool { return errors.Is(err, libtas.ErrReset) }

// ErrPeerDead reports whether err is specifically a liveness-probe
// verdict: the peer stopped responding to zero-window persist probes or
// TCP keepalives and the flow was aborted. ErrPeerDead errors also
// satisfy ErrReset, so existing reset handling keeps working; this
// helper distinguishes "peer silently died" from "peer sent RST".
func ErrPeerDead(err error) bool { return errors.Is(err, libtas.ErrPeerDead) }

// ErrAppDead reports whether err means the application context was
// reaped (its application exited); all further operations
// on the context fail fast with this error.
func ErrAppDead(err error) bool { return errors.Is(err, libtas.ErrAppDead) }

// ErrBackpressure reports whether err is a resource-governor denial:
// a global pool capacity or the application's quota was exhausted
// (Dial refused, TX grant clamped past the deadline, or a non-blocking
// send bound by the clamp). Unlike faults, backpressure is retryable —
// pressure falls as flows close, acks drain, or the ladder reclaims.
func ErrBackpressure(err error) bool { return errors.Is(err, libtas.ErrBackpressure) }

// ErrSlowPathDown reports whether err means the control plane is down:
// Dial and Listen fail fast with it while the fast path is degraded,
// rather than queueing work no slow path will serve. Established
// connections are unaffected; recover with Service.Restart.
func ErrSlowPathDown(err error) bool { return errors.Is(err, libtas.ErrSlowPathDown) }

// Aborted reports whether the connection failed (RST or retransmission
// budget exhausted). Subsequent Reads and Writes return a reset error.
func (c *Conn) Aborted() bool { return c.c.Aborted() }
