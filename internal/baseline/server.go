// Package baseline builds modeled RPC server endpoints for the four
// compared stack architectures — Linux (monolithic in-kernel), IX
// (protected kernel bypass, run-to-completion), mTCP (per-core user-level
// stacks with batching), and TAS (dedicated fast-path cores) — on top of
// the cpumodel cost tables. These endpoints power the request-level
// benchmark simulations: each request charges the stack's per-module
// cycles (plus emergent cache and lock penalties) on simulated cores
// laid out the way that architecture lays them out, so throughput,
// latency distribution, connection scalability, and core scaling emerge
// from the structure rather than being dialed in.
package baseline

import (
	"repro/internal/cpumodel"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ServerConfig describes one server under test.
type ServerConfig struct {
	Kind cpumodel.StackKind

	// AppCores run the application; for Linux and IX the network stack
	// runs on the same cores. StackCores are dedicated stack cores (TAS
	// fast path, mTCP stack threads); ignored for Linux/IX.
	AppCores   int
	StackCores int

	// Conns is the concurrent connection count (drives cache pressure).
	Conns int

	CyclesPerNs float64             // clock (0 = paper's 2.1 GHz)
	Cache       cpumodel.CacheModel // zero value = DefaultCache(total cores)

	// AppCycles overrides the application cycles per request (0 = the
	// cost table's measured App value).
	AppCycles float64

	// Costs overrides the stack cost table (nil = CostsFor(Kind)).
	Costs *cpumodel.Costs
}

// AppWork describes application-level work for one request beyond the
// per-request cycles: an optional serialized critical section (a shared
// lock such as a hot key-value pair), executed on a dedicated serial
// resource.
type AppWork struct {
	ExtraCycles  float64
	Serial       *cpumodel.Core // shared serial resource, or nil
	SerialCycles float64
}

// Server is a modeled RPC endpoint.
type Server struct {
	eng   *sim.Engine
	cfg   ServerConfig
	costs cpumodel.Costs
	cache cpumodel.CacheModel

	app *cpumodel.Pool
	stk *cpumodel.Pool

	// activeFP is the number of fast-path cores currently in use
	// (TAS workload proportionality); always StackCores for mTCP.
	activeFP int

	// Cold-cache state per stack core: requests on a newly woken core
	// pay extra cycles until the core has warmed.
	coldUntil []sim.Time

	// ColdPeriod and ColdExtraCycles model the transient after a core
	// is added (Figure 15's latency blip).
	ColdPeriod      sim.Time
	ColdExtraCycles float64

	// Requests served (for throughput accounting).
	Served uint64
}

// NewServer builds the endpoint.
func NewServer(eng *sim.Engine, cfg ServerConfig) *Server {
	if cfg.AppCores <= 0 {
		cfg.AppCores = 1
	}
	costs := cpumodel.CostsFor(cfg.Kind)
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	if cfg.AppCycles > 0 {
		costs.App = cfg.AppCycles
	}
	dedicated := cfg.Kind == cpumodel.StackTAS || cfg.Kind == cpumodel.StackTASLL || cfg.Kind == cpumodel.StackMTCP
	if dedicated && cfg.StackCores <= 0 {
		cfg.StackCores = 1
	}
	if !dedicated {
		cfg.StackCores = 0
	}
	cache := cfg.Cache
	if cache.CacheBytes == 0 {
		cache = cpumodel.DefaultCache(cfg.AppCores + cfg.StackCores)
	}
	s := &Server{
		eng: eng, cfg: cfg, costs: costs, cache: cache,
		app:             cpumodel.NewPool(eng, cfg.AppCores, cfg.CyclesPerNs),
		activeFP:        cfg.StackCores,
		ColdPeriod:      2 * sim.Millisecond,
		ColdExtraCycles: 2500,
	}
	if cfg.StackCores > 0 {
		s.stk = cpumodel.NewPool(eng, cfg.StackCores, cfg.CyclesPerNs)
		s.coldUntil = make([]sim.Time, cfg.StackCores)
	}
	return s
}

// Costs returns the effective cost table.
func (s *Server) Costs() cpumodel.Costs { return s.costs }

// AllCores returns every core (app then stack) for cycle accounting.
func (s *Server) AllCores() []*cpumodel.Core {
	out := append([]*cpumodel.Core(nil), s.app.Cores...)
	if s.stk != nil {
		out = append(out, s.stk.Cores...)
	}
	return out
}

// ActiveFP returns the number of active fast-path cores.
func (s *Server) ActiveFP() int { return s.activeFP }

// extraStack returns emergent per-request stack-side penalty cycles.
func (s *Server) extraStack() float64 {
	extra := s.cache.ExtraCycles(s.costs, s.cfg.Conns)
	switch s.cfg.Kind {
	case cpumodel.StackLinux:
		extra += cpumodel.LockExtraCycles(s.costs, s.cfg.AppCores)
	}
	if extra < 0 {
		extra = 0
	}
	return extra
}

// stackCoreFor picks the fast-path core for a connection and applies the
// cold-cache surcharge when the core was recently activated.
func (s *Server) stackCoreFor(conn uint32) (*cpumodel.Core, float64) {
	n := s.activeFP
	if n < 1 {
		n = 1
	}
	idx := int(conn) % n
	core := s.stk.Cores[idx]
	var cold float64
	if s.coldUntil[idx] > s.eng.Now() {
		cold = s.ColdExtraCycles
	}
	return core, cold
}

// schedDelay samples the stack's notification latency: the time from
// packet arrival to the stack starting to process it (interrupt/wakeup
// path for Linux, adaptive polling for IX, spinning cores for TAS),
// including rare scheduler outliers.
func (s *Server) schedDelay() sim.Time {
	c := s.costs
	d := c.PollBase
	if c.PollJitter > 0 {
		d += sim.Time(s.eng.Rand().ExpFloat64() * float64(c.PollJitter))
	}
	if c.SpikeProb > 0 && s.eng.Rand().Float64() < c.SpikeProb {
		d += c.SpikeDelay
	}
	return d
}

// Request submits one RPC for the given connection. done fires when the
// response has been handed to the NIC, with the server-side latency.
func (s *Server) Request(conn uint32, work AppWork, done func(latency sim.Time)) {
	start := s.eng.Now()
	if d := s.schedDelay(); d > 0 {
		s.eng.After(d, func() { s.request(conn, work, done, start) })
		return
	}
	s.request(conn, work, done, start)
}

func (s *Server) request(conn uint32, work AppWork, done func(latency sim.Time), start sim.Time) {
	finish := func() {
		s.Served++
		if done != nil {
			done(s.eng.Now() - start)
		}
	}
	appCore := s.app.ByHash(conn, s.cfg.AppCores)
	appCycles := s.costs.App + work.ExtraCycles

	runApp := func(then func()) {
		appCore.ExecMod(telemetry.ModAppCopy, appCycles, func() {
			if work.Serial != nil && work.SerialCycles > 0 {
				work.Serial.Exec(work.SerialCycles, then)
			} else {
				then()
			}
		})
	}

	switch s.cfg.Kind {
	case cpumodel.StackLinux, cpumodel.StackIX:
		// Run-to-completion: stack rx + app + stack tx execute as one
		// uninterrupted block on the app core (re-queueing the app half
		// would let unrelated requests interleave, which monolithic
		// stacks do not do).
		// The whole block attributes to "other" in the module view:
		// monolithic stacks have no rx/tx pipeline split to charge.
		total := s.costs.StackCycles() + s.extraStack() + appCycles
		appCore.ExecMod(telemetry.ModOther, total, func() {
			if work.Serial != nil && work.SerialCycles > 0 {
				work.Serial.Exec(work.SerialCycles, finish)
			} else {
				finish()
			}
		})

	case cpumodel.StackMTCP:
		// Per-core stack threads with batched handoff in both
		// directions: work is correct but delivery quantizes to batch
		// boundaries.
		stkCore, cold := s.stackCoreFor(conn)
		stack := s.costs.StackCycles() + s.extraStack() + cold
		rx := stack * s.costs.RxFraction
		tx := stack - rx
		stkCore.ExecMod(telemetry.ModRx, rx, func() {
			s.atNextBatch(func() {
				runApp(func() {
					s.atNextBatch(func() {
						stkCore.ExecMod(telemetry.ModTx, tx, finish)
					})
				})
			})
		})

	case cpumodel.StackTAS, cpumodel.StackTASLL:
		// Pipeline: fast-path core (rx) -> app core (sockets + app) ->
		// fast-path core (tx). Sockets-layer cycles execute on the app
		// core (libTAS is linked into the application); protocol cycles
		// and the per-flow state footprint live on the fast path.
		stkCore, cold := s.stackCoreFor(conn)
		proto := s.costs.Driver + s.costs.IP + s.costs.TCP + s.costs.Other + s.extraStack() + cold
		rx := proto * s.costs.RxFraction
		tx := proto - rx
		sockets := s.costs.Sockets
		stkCore.ExecMod(telemetry.ModRx, rx, func() {
			appCore.ExecMod(telemetry.ModAppCopy, sockets+appCycles, func() {
				postApp := func() { stkCore.ExecMod(telemetry.ModTx, tx, finish) }
				if work.Serial != nil && work.SerialCycles > 0 {
					work.Serial.Exec(work.SerialCycles, postApp)
				} else {
					postApp()
				}
			})
		})
	}
}

// atNextBatch delays fn to the next batch boundary (mTCP's batched
// queues); BatchDelay 0 runs fn immediately.
func (s *Server) atNextBatch(fn func()) {
	d := s.costs.BatchDelay
	if d <= 0 {
		fn()
		return
	}
	now := s.eng.Now()
	next := (now/d + 1) * d
	s.eng.At(next, fn)
}

// SetActiveFP changes the number of active fast-path cores (TAS workload
// proportionality). Newly activated cores start cold and pay a wakeup.
func (s *Server) SetActiveFP(n int) {
	if s.stk == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	if n > len(s.stk.Cores) {
		n = len(s.stk.Cores)
	}
	for i := s.activeFP; i < n; i++ {
		s.stk.Cores[i].Blocked = true
		s.coldUntil[i] = s.eng.Now() + s.ColdPeriod
		// Freshly activated cores must not report their idle past as
		// idle capacity (the monitor would immediately shed them).
		s.stk.Cores[i].ResetSample()
	}
	s.activeFP = n
}

// FPUtilization returns average utilization across active fast-path
// cores and resets their sampling windows.
func (s *Server) FPUtilization() float64 {
	if s.stk == nil || s.activeFP == 0 {
		return 0
	}
	return s.stk.Utilization(s.activeFP)
}

// Monitor runs the slow path's core-scaling policy (§3.4): every
// interval, if aggregate idle capacity exceeds removeIdle cores, drop a
// core; if it falls below addIdle, add one. Returns the ticker so the
// caller can stop it.
func (s *Server) Monitor(interval sim.Time, addIdle, removeIdle float64, onChange func(cores int)) *sim.Timer {
	// Debounce: a condition must hold for two consecutive samples
	// before acting, so queue-drain transients after a re-steer don't
	// flap the core count.
	var addPend, remPend int
	return s.eng.Every(interval, func() {
		u := s.FPUtilization()
		idle := (1 - u) * float64(s.activeFP)
		switch {
		case idle > removeIdle && s.activeFP > 1:
			addPend = 0
			remPend++
			if remPend >= 2 {
				remPend = 0
				s.SetActiveFP(s.activeFP - 1)
				if onChange != nil {
					onChange(s.activeFP)
				}
			}
		case idle < addIdle && s.activeFP < len(s.stk.Cores):
			remPend = 0
			addPend++
			if addPend >= 2 {
				addPend = 0
				s.SetActiveFP(s.activeFP + 1)
				if onChange != nil {
					onChange(s.activeFP)
				}
			}
		default:
			addPend, remPend = 0, 0
		}
	})
}
