package scenario

import (
	"fmt"
	"time"

	tas "repro"
	"repro/internal/resource"
)

// Assertions are the machine-checkable postconditions of a run. Zero
// values disable a check, except Intact/AllComplete which must be opted
// into explicitly.
type Assertions struct {
	// Intact requires every completed transfer/call to be content-
	// verified (SHA-256 digests for streams, echo comparison for RPC).
	Intact bool `json:"intact,omitempty"`

	// AllComplete requires every scheduled transfer/call to finish
	// within the run duration.
	AllComplete bool `json:"all_complete,omitempty"`

	// MaxRecovery bounds the time from the end of the last scheduled
	// timeline event to workload completion.
	MaxRecovery Duration `json:"max_recovery,omitempty"`

	// MinFlowsMigrated / MinCoreFailures / MinAppsReaped assert the
	// fault machinery actually engaged.
	MinFlowsMigrated int `json:"min_flows_migrated,omitempty"`
	MinCoreFailures  int `json:"min_core_failures,omitempty"`
	MinAppsReaped    int `json:"min_apps_reaped,omitempty"`

	// RequireDegraded asserts the fast path observed at least one
	// slow-path outage (degraded mode engaged).
	RequireDegraded bool `json:"require_degraded,omitempty"`

	// MaxServerAborts bounds flows the server aborted on retry-budget
	// exhaustion (-1 = unbounded; 0 means "none allowed" only when
	// BoundServerAborts is set).
	MaxServerAborts   int  `json:"max_server_aborts,omitempty"`
	BoundServerAborts bool `json:"bound_server_aborts,omitempty"`

	// DropCauses bounds server drop counters by cause name (the
	// tas_drops_total causes, e.g. "bad_desc": 0).
	DropCauses map[string]uint64 `json:"drop_causes,omitempty"`

	// MinCookiesValidated requires the server to have reconstructed at
	// least n connections from SYN-cookie ACKs (proof the stateless
	// path, not the stateful one, carried handshakes during a flood).
	MinCookiesValidated int `json:"min_cookies_validated,omitempty"`

	// ProbeP99 enables the control-port prober and bounds its p99 dial
	// latency during attack windows: handshakes on a second port, not the
	// attacked one, must stay fast while the flood runs.
	ProbeP99 Duration `json:"probe_p99,omitempty"`

	// RttP99Under bounds the server's p99 smoothed RTT over the whole
	// run, evaluated against the report's embedded telemetry time
	// series (the max of the tas_rtt_us{quantile="0.99"} trajectory) —
	// latency over time across the fault timeline, not just end state.
	RttP99Under Duration `json:"rtt_p99_under,omitempty"`

	// MinPressureLevel requires the server's resource-governor
	// degradation ladder to have reached at least this rung during the
	// run (1 cookies, 2 shed-syn, 3 clamp-tx, 4 reclaim) — proof the
	// pressure machinery actually engaged.
	MinPressureLevel int `json:"min_pressure_level,omitempty"`

	// MinPersistProbes requires at least n zero-window (persist timer)
	// probes transmitted across all services — proof senders rode the
	// persist timer through receiver-limited stalls instead of burning
	// their retransmission budgets.
	MinPersistProbes int `json:"min_persist_probes,omitempty"`

	// MinPeerDead requires at least n flows across all services to have
	// been aborted with a peer-dead verdict (persist-probe or keepalive
	// budget exhaustion).
	MinPeerDead int `json:"min_peer_dead,omitempty"`

	// MaxPeerDead bounds peer-dead verdicts across all services (0 means
	// "none allowed" only when BoundPeerDead is set): a scenario where
	// every stall resolves must never misclassify a slow peer as dead.
	MaxPeerDead   int  `json:"max_peer_dead,omitempty"`
	BoundPeerDead bool `json:"bound_peer_dead,omitempty"`

	// NoReaperFired asserts silent peers were detected by the liveness
	// machinery itself: no app context reaped and no flow LRU
	// idle-reclaimed on any service during the run.
	NoReaperFired bool `json:"no_reaper_fired,omitempty"`

	// MaxPoolUsed bounds the server's governed-pool occupancy at the
	// end of the run, by pool name (payload_bytes, flows, half_open,
	// contexts, timers, accept, time_wait). The executor gives teardown effects a
	// settle window (FIN sweeps, idle reclamation run on control ticks)
	// before declaring a pool leaked; a bound of 0 asserts the pool
	// returns exactly to empty.
	MaxPoolUsed map[string]int64 `json:"max_pool_used,omitempty"`
}

// evaluation is what an assertion kind reads once the run is over, and
// the report rows the kinds have added so far.
type evaluation struct {
	*run
	a        *Assertions
	rep      *Report
	capped   bool
	recovery time.Duration
	rows     []AssertionResult
}

func (e *evaluation) add(name string, pass bool, format string, args ...any) {
	e.rows = append(e.rows, AssertionResult{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// total sums one counter over the server and every client.
func (e *evaluation) total(read func(*ServiceSnapshot) uint64) uint64 {
	n := read(&e.rep.Server)
	for i := range e.rep.Clients {
		n += read(&e.rep.Clients[i])
	}
	return n
}

// atLeast is the row asserting that a counter reached an asked-for
// minimum; a zero minimum adds no row.
func (e *evaluation) atLeast(name string, got uint64, want int, what string) {
	if want > 0 {
		e.add(name, got >= uint64(want), "%d %s (want >= %d)", got, what, want)
	}
}

// assertion is one assertion kind: what Validate checks of the
// Assertions fields it reads (nil: nothing), and the report rows it adds
// when those fields ask for it. A kind that reads no field is always on.
type assertion struct {
	validate func(a *Assertions) error
	eval     func(e *evaluation)
}

// assertions is ordered: report rows, and so the deterministic digest,
// follow it.
var assertions = []assertion{
	{eval: func(e *evaluation) {
		if e.capped {
			e.add("within-duration", false, "run hit the %v duration cap", e.spec.Duration.D())
		} else {
			e.add("within-duration", true, "finished in %.0fms", e.rep.WallMS)
		}
	}},
	// Whatever the timeline did to cores, slow paths and apps, no service
	// may end with a flow stranded off the control tick or a close off its
	// timer.
	{eval: func(e *evaluation) {
		for _, svc := range append([]*tas.Service{e.srv}, e.clients...) {
			if err := svc.Slow().CheckControlInvariant(); err != nil {
				e.add("control-set", false, "%v", err)
				return
			}
		}
		e.add("control-set", true, "every flow active, parked or queued for activation; no parked flow holds work; every close on its timer, the timer pool exact")
	}},
	// The workload's outcome.
	{eval: func(e *evaluation) {
		w := e.rep.Workload
		if e.a.AllComplete {
			e.add("all-complete", w.Completed == w.Expected && w.Failed == 0,
				"%d/%d ops completed (%d failed)", w.Completed, w.Expected, w.Failed)
		}
		if e.a.Intact {
			e.add("intact", w.Mismatches == 0, "%d content mismatches over %d completed ops (SHA-256 verified)",
				w.Mismatches, w.Completed)
		}
	}},
	{
		validate: func(a *Assertions) error {
			return check(a.MaxRecovery >= 0, ErrBadSpec, "assert.max_recovery", "negative bound %v", a.MaxRecovery.D())
		},
		eval: func(e *evaluation) {
			if bound := e.a.MaxRecovery.D(); bound > 0 {
				e.add("recovery", e.recovery <= bound,
					"recovered in %v (bound %v)", e.recovery.Round(time.Millisecond), bound)
			}
		},
	},
	// The fault machinery engaged.
	{eval: func(e *evaluation) {
		e.atLeast("flows-migrated", e.rep.Server.FlowsMigrated, e.a.MinFlowsMigrated, "flows migrated")
		e.atLeast("core-failures", e.rep.Server.CoreFailures, e.a.MinCoreFailures, "core failures declared")
		e.atLeast("apps-reaped", e.total(func(s *ServiceSnapshot) uint64 { return s.AppsReaped }),
			e.a.MinAppsReaped, "app contexts reaped")
	}},
	{eval: func(e *evaluation) {
		if e.a.RequireDegraded {
			outages := e.total(func(s *ServiceSnapshot) uint64 { return s.SlowPathOutages })
			e.add("degraded-observed", outages > 0, "%d slow-path outages observed", outages)
		}
	}},
	{eval: func(e *evaluation) {
		if e.a.BoundServerAborts {
			e.add("server-aborts", e.rep.Server.Aborts <= uint64(e.a.MaxServerAborts),
				"%d server aborts (bound %d)", e.rep.Server.Aborts, e.a.MaxServerAborts)
		}
	}},
	{
		validate: func(a *Assertions) error { return nonNegativeLiveness(a.MinPersistProbes) },
		eval: func(e *evaluation) {
			e.atLeast("persist-probes", e.total(func(s *ServiceSnapshot) uint64 { return s.PersistProbes }),
				e.a.MinPersistProbes, "zero-window probes sent across services")
		},
	},
	{
		validate: func(a *Assertions) error { return nonNegativeLiveness(min(a.MinPeerDead, a.MaxPeerDead)) },
		eval: func(e *evaluation) {
			zw := e.total(func(s *ServiceSnapshot) uint64 { return s.PeerDeadZeroWindow })
			ka := e.total(func(s *ServiceSnapshot) uint64 { return s.PeerDeadKeepalive })
			if want := e.a.MinPeerDead; want > 0 {
				e.add("peer-dead", zw+ka >= uint64(want),
					"%d peer-dead verdicts (%d zero-window, %d keepalive; want >= %d)", zw+ka, zw, ka, want)
			}
			if bound := e.a.MaxPeerDead; e.a.BoundPeerDead {
				e.add("peer-dead-bound", zw+ka <= uint64(bound),
					"%d peer-dead verdicts (%d zero-window, %d keepalive; bound %d)", zw+ka, zw, ka, bound)
			}
		},
	},
	{eval: func(e *evaluation) {
		if e.a.NoReaperFired {
			reaped := e.total(func(s *ServiceSnapshot) uint64 { return s.AppsReaped })
			idle := e.total(func(s *ServiceSnapshot) uint64 { return s.GovIdleReclaimed })
			e.add("liveness-not-reaper", reaped == 0 && idle == 0,
				"%d app contexts reaped, %d flows idle-reclaimed (dead peers must fall to liveness probes alone)",
				reaped, idle)
		}
	}},
	{eval: func(e *evaluation) {
		if want := e.a.MinCookiesValidated; want > 0 {
			s := e.rep.Server
			e.add("cookies-validated", s.SynCookiesValidated >= uint64(want),
				"%d connections reconstructed from SYN cookies (want >= %d; %d cookies sent, %d rejected)",
				s.SynCookiesValidated, want, s.SynCookiesSent, s.SynCookiesRejected)
		}
	}},
	{eval: func(e *evaluation) {
		if e.a.ProbeP99 <= 0 {
			return
		}
		if p := e.rep.Probe; p == nil || p.Dials == 0 {
			e.add("probe-p99", false, "prober made no successful dials during attack windows (%d failed)",
				e.probeFails)
		} else {
			bound := float64(e.a.ProbeP99.D().Microseconds()) / 1000
			e.add("probe-p99", p.P99MS <= bound && p.Fails == 0,
				"second-port dial p99 %.2fms over %d dials, %d failed (bound %.2fms)",
				p.P99MS, p.Dials, p.Fails, bound)
		}
	}},
	{
		validate: func(a *Assertions) error {
			return check(a.RttP99Under >= 0, ErrBadSpec, "assert.rtt_p99_under", "negative bound %v", a.RttP99Under.D())
		},
		eval: func(e *evaluation) {
			if e.a.RttP99Under <= 0 {
				return
			}
			boundUS := float64(e.a.RttP99Under.D().Microseconds())
			ts := e.rep.TimeSeries
			if ts == nil {
				e.add("rtt-p99", false, "no embedded time series (telemetry recorder disabled)")
			} else if n, ok := ts.Max("tas_rtt_us_count", nil); !ok || n == 0 {
				// An empty histogram would satisfy any bound vacuously; a
				// scenario asserting on RTT must actually generate server-side
				// ACK traffic (the server has to transmit data).
				e.add("rtt-p99", false, "RTT histogram saw no samples (server transmitted too little data)")
			} else if maxUS, ok := ts.Max("tas_rtt_us", map[string]string{"quantile": "0.99"}); !ok {
				e.add("rtt-p99", false, "time series has no tas_rtt_us{quantile=\"0.99\"} points")
			} else {
				e.add("rtt-p99", maxUS <= boundUS,
					"worst sampled p99 RTT %.0fµs over %d snapshots, %.0f RTT samples (bound %.0fµs)",
					maxUS, len(ts.AtMS), n, boundUS)
			}
		},
	},
	{
		validate: func(a *Assertions) error {
			for _, c := range sortedKeys(a.DropCauses) {
				if _, ok := (tas.ServiceStats{}).Drop(c); !ok {
					return specErr(ErrUnknownKind, "assert.drop_causes", "unknown drop cause %q", c)
				}
			}
			return nil
		},
		eval: func(e *evaluation) {
			for _, c := range sortedKeys(e.a.DropCauses) {
				got, _ := e.rep.Server.Drop(c)
				e.add("drops:"+c, got <= e.a.DropCauses[c], "%d drops (bound %d)", got, e.a.DropCauses[c])
			}
		},
	},
	{
		validate: func(a *Assertions) error {
			return check(a.MinPressureLevel >= 0 && a.MinPressureLevel < resource.NumLevels, ErrOutOfRange,
				"assert.min_pressure_level", "pressure level %d outside [0,%d]", a.MinPressureLevel, resource.NumLevels-1)
		},
		eval: func(e *evaluation) {
			if want := e.a.MinPressureLevel; want > 0 {
				s := e.rep.Server
				e.add("pressure-level", s.PeakPressureLevel >= want,
					"degradation ladder peaked at rung %d (want >= %d; %d flow denials, %d idle reclaimed)",
					s.PeakPressureLevel, want, s.GovFlowDenied, s.GovIdleReclaimed)
			}
		},
	},
	{
		validate: func(a *Assertions) error {
			for _, p := range sortedKeys(a.MaxPoolUsed) {
				if !knownPool(p) {
					return specErr(ErrUnknownKind, "assert.max_pool_used", "unknown pool %q", p)
				}
				if a.MaxPoolUsed[p] < 0 {
					return specErr(ErrBadSpec, "assert.max_pool_used", "negative bound for pool %q", p)
				}
			}
			return nil
		},
		eval: func(e *evaluation) {
			// Pool drains are asynchronous — FIN sweeps, reaper passes, and
			// governor releases all run on control ticks — so give the stack
			// a settle window before calling an occupancy a leak. The
			// services are still live here (teardown happens after
			// evaluation), so polling observes the drain.
			bounds := e.a.MaxPoolUsed
			pools := sortedKeys(bounds)
			used := e.rep.Server.PoolUsed
			for deadline := time.Now().Add(poolSettleWait); ; used = e.srv.Stats().PoolUsed {
				ok := true
				for _, p := range pools {
					ok = ok && used[p] <= bounds[p]
				}
				if ok || time.Now().After(deadline) {
					break
				}
				time.Sleep(25 * time.Millisecond)
			}
			for _, p := range pools {
				e.add("pool:"+p, used[p] <= bounds[p], "%d in use after settle (bound %d)", used[p], bounds[p])
			}
		},
	},
}

// poolSettleWait bounds how long evaluate waits for governed pools to
// drain back under their asserted bounds after the workload completes.
const poolSettleWait = 5 * time.Second

func nonNegativeLiveness(n int) error {
	return check(n >= 0, ErrBadSpec, "assert.min_persist_probes", "negative peer-liveness bound")
}

// knownPool reports whether name is one of the governor's pools.
func knownPool(name string) bool {
	for p := resource.Pool(0); p < resource.NumPools; p++ {
		if p.String() == name {
			return true
		}
	}
	return false
}

func (s *Spec) validateAssertions() error {
	for _, k := range assertions {
		if k.validate == nil {
			continue
		}
		if err := k.validate(&s.Assert); err != nil {
			return err
		}
	}
	return nil
}

// evaluate checks the run's assertions in table order.
func (r *run) evaluate(rep *Report, capped bool, recovery time.Duration) []AssertionResult {
	e := &evaluation{run: r, a: &r.spec.Assert, rep: rep, capped: capped, recovery: recovery}
	for _, k := range assertions {
		k.eval(e)
	}
	return e.rows
}
