// Package cpumodel models CPU execution for the benchmark simulations:
// cores that serially execute work measured in cycles, per-stack
// per-module cycle cost tables (calibrated from the paper's Table 1
// breakdown, measured with hardware performance counters on a 2.1 GHz
// Skylake), a cache-footprint model that makes per-connection state
// pressure emerge at high connection counts (the mechanism behind the
// paper's Figure 4), a lock-contention model for shared-state stacks,
// and top-down counter accounting (retiring / frontend / backend / bad
// speculation, Table 2).
package cpumodel

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DefaultCyclesPerNs is the paper's server clock (2.1 GHz Skylake).
const DefaultCyclesPerNs = 2.1

// Core is a serially-executing CPU resource in the discrete-event
// simulation. Work is queued implicitly: each Exec occupies the core
// from max(now, busyUntil) for cycles/frequency.
type Core struct {
	eng         *sim.Engine
	cyclesPerNs float64
	busyUntil   sim.Time

	// Accounting for utilization sampling (workload proportionality).
	busyAccum   sim.Time
	sampleStart sim.Time
	sampleBusy  sim.Time

	// Blocked models the fast path's adaptive sleep: a blocked core
	// charges a wakeup penalty on its next work item.
	Blocked      bool
	WakeupCycles float64

	TotalCycles float64
	TotalItems  uint64

	// Per-module attribution (Table 1 style): cycles and work items
	// charged through ExecMod, indexed by telemetry.Module. Plain Exec
	// leaves these untouched.
	ModCycles [telemetry.NumModules]float64
	ModItems  [telemetry.NumModules]uint64
}

// NewCore returns a core at the given clock rate (cycles per ns; use
// DefaultCyclesPerNs for the paper's server).
func NewCore(eng *sim.Engine, cyclesPerNs float64) *Core {
	if cyclesPerNs <= 0 {
		cyclesPerNs = DefaultCyclesPerNs
	}
	return &Core{eng: eng, cyclesPerNs: cyclesPerNs, WakeupCycles: 3000}
}

// Exec schedules cycles of work and calls done (if non-nil) when the
// work completes. It returns the completion time.
func (c *Core) Exec(cycles float64, done func()) sim.Time {
	if cycles < 0 {
		cycles = 0
	}
	if c.Blocked {
		cycles += c.WakeupCycles
		c.Blocked = false
	}
	now := c.eng.Now()
	start := c.busyUntil
	if start < now {
		start = now
	}
	dur := sim.Time(cycles / c.cyclesPerNs)
	end := start + dur
	c.busyUntil = end
	c.busyAccum += dur
	c.sampleBusy += dur
	c.TotalCycles += cycles
	c.TotalItems++
	if done != nil {
		c.eng.At(end, done)
	}
	return end
}

// ExecMod is Exec with the cycles attributed to a named stack module,
// so simulations produce the same Table-1-style per-module breakdown
// the live stack's cycle accounting does. Any surcharge Exec adds on
// top of the requested cycles (the wakeup penalty of a blocked core)
// lands under ModOther rather than inflating the named module.
func (c *Core) ExecMod(mod telemetry.Module, cycles float64, done func()) sim.Time {
	if cycles < 0 {
		cycles = 0
	}
	before := c.TotalCycles
	end := c.Exec(cycles, done)
	if mod < 0 || mod >= telemetry.NumModules {
		mod = telemetry.ModOther
	}
	c.ModCycles[mod] += cycles
	c.ModItems[mod]++
	if extra := c.TotalCycles - before - cycles; extra > 0 {
		c.ModCycles[telemetry.ModOther] += extra
	}
	return end
}

// ModuleBreakdown sums per-module attributed cycles and items across
// cores.
func ModuleBreakdown(cores []*Core) (cycles [telemetry.NumModules]float64, items [telemetry.NumModules]uint64) {
	for _, c := range cores {
		for m := 0; m < int(telemetry.NumModules); m++ {
			cycles[m] += c.ModCycles[m]
			items[m] += c.ModItems[m]
		}
	}
	return cycles, items
}

// QueueDelay returns how long newly submitted work would wait before
// starting.
func (c *Core) QueueDelay() sim.Time {
	if d := c.busyUntil - c.eng.Now(); d > 0 {
		return d
	}
	return 0
}

// Utilization returns the busy fraction since the previous call (or
// since creation) and resets the sampling window.
func (c *Core) Utilization() float64 {
	now := c.eng.Now()
	window := now - c.sampleStart
	if window <= 0 {
		return 0
	}
	busy := c.sampleBusy
	// Work scheduled beyond now counts only up to now.
	if over := c.busyUntil - now; over > 0 && busy > over {
		busy -= over
	}
	u := float64(busy) / float64(window)
	c.sampleStart = now
	c.sampleBusy = 0
	if u > 1 {
		u = 1
	}
	return u
}

// ResetSample restarts the utilization sampling window at the current
// time — required when a core is (re)activated so the next Utilization
// reading does not average over its idle past.
func (c *Core) ResetSample() {
	c.sampleStart = c.eng.Now()
	c.sampleBusy = 0
}

// Pool is a set of cores with load-spreading helpers.
type Pool struct {
	Cores []*Core
}

// NewPool returns n cores.
func NewPool(eng *sim.Engine, n int, cyclesPerNs float64) *Pool {
	p := &Pool{}
	for i := 0; i < n; i++ {
		p.Cores = append(p.Cores, NewCore(eng, cyclesPerNs))
	}
	return p
}

// ByHash returns the core a flow hash steers to, over the first n cores
// (n <= 0 means all).
func (p *Pool) ByHash(hash uint32, n int) *Core {
	if n <= 0 || n > len(p.Cores) {
		n = len(p.Cores)
	}
	return p.Cores[hash%uint32(n)]
}

// Utilization returns the average utilization over the first n cores,
// resetting their sampling windows.
func (p *Pool) Utilization(n int) float64 {
	if n <= 0 || n > len(p.Cores) {
		n = len(p.Cores)
	}
	var sum float64
	for _, c := range p.Cores[:n] {
		sum += c.Utilization()
	}
	return sum / float64(n)
}
