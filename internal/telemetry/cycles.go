package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
)

// Module names one stage of the stack for cycle attribution — the rows
// of the paper's Table 1 style breakdown.
type Module uint8

// Cycle-accounting modules.
const (
	ModRx      Module = iota // fast-path receive processing
	ModTx                    // fast-path transmit processing
	ModCC                    // slow-path congestion-control sweep
	ModTimer                 // slow-path handshake/close/retransmit timers
	ModReaper                // slow-path app-liveness reaping
	ModAppCopy               // libtas payload copies in/out of app buffers
	ModMigrate               // slow-path core-failure flow migration
	ModOther                 // everything unattributed
	NumModules
)

var modNames = [NumModules]string{"rx", "tx", "cc", "timer", "reaper", "app-copy", "migrate", "other"}

func (m Module) String() string {
	if int(m) < len(modNames) {
		return modNames[m]
	}
	return fmt.Sprintf("mod(%d)", uint8(m))
}

// cycleCell accumulates one (row, module) pair: nanoseconds of wall
// time spent and items (packets, events, copies) processed. Padded so
// adjacent cells never share a cache line across cores.
type cycleCell struct {
	nanos atomic.Int64
	items atomic.Uint64
	_     [48]byte
}

// CycleStats attributes executed time per core per module. Rows
// 0..fastCores-1 are the fast-path cores; two extra rows hold the slow
// path and the application/libtas side. Live-path callers record wall
// nanoseconds (converted to cycles at a configured clock rate when
// reported); the simulation records modeled cycles directly via
// cpumodel.Core.ExecMod feeding AddFast.
type CycleStats struct {
	fastCores int
	cells     []cycleCell // (fastCores+2) * NumModules
}

// NewCycleStats sizes the account for fastCores fast-path rows plus the
// slow-path and app rows.
func NewCycleStats(fastCores int) *CycleStats {
	if fastCores < 1 {
		fastCores = 1
	}
	return &CycleStats{
		fastCores: fastCores,
		cells:     make([]cycleCell, (fastCores+2)*int(NumModules)),
	}
}

// Rows returns the total row count (fast cores + slow + app).
func (c *CycleStats) Rows() int { return c.fastCores + 2 }

// RowName labels a row for display: "core0".."coreN", "slow", "app".
func (c *CycleStats) RowName(row int) string {
	switch {
	case row < c.fastCores:
		return fmt.Sprintf("core%d", row)
	case row == c.fastCores:
		return "slow"
	default:
		return "app"
	}
}

func (c *CycleStats) cell(row int, m Module) *cycleCell {
	return &c.cells[row*int(NumModules)+int(m)]
}

// AddFast charges nanos of time and items of work to module m on
// fast-path core (clamped into range for safety against bad hints).
// Callers using sampled timing pass nanos == 0 on unsampled batches;
// the zero check keeps those calls to a single atomic RMW.
func (c *CycleStats) AddFast(core int, m Module, nanos int64, items uint64) {
	if core < 0 || core >= c.fastCores {
		core = 0
	}
	cl := c.cell(core, m)
	if nanos != 0 {
		cl.nanos.Add(nanos)
	}
	cl.items.Add(items)
}

// AddSlow charges the slow-path row.
func (c *CycleStats) AddSlow(m Module, nanos int64, items uint64) {
	cl := c.cell(c.fastCores, m)
	if nanos != 0 {
		cl.nanos.Add(nanos)
	}
	cl.items.Add(items)
}

// AddApp charges the application/libtas row.
func (c *CycleStats) AddApp(m Module, nanos int64, items uint64) {
	cl := c.cell(c.fastCores+1, m)
	if nanos != 0 {
		cl.nanos.Add(nanos)
	}
	cl.items.Add(items)
}

// ModuleTotal is the accumulated account of one (row, module) pair.
type ModuleTotal struct {
	Nanos int64
	Items uint64
}

// Get reads one (row, module) account.
func (c *CycleStats) Get(row int, m Module) ModuleTotal {
	cl := c.cell(row, m)
	return ModuleTotal{Nanos: cl.nanos.Load(), Items: cl.items.Load()}
}

// Total sums a module's account across all rows.
func (c *CycleStats) Total(m Module) ModuleTotal {
	var t ModuleTotal
	for row := 0; row < c.Rows(); row++ {
		g := c.Get(row, m)
		t.Nanos += g.Nanos
		t.Items += g.Items
	}
	return t
}

// WriteBreakdown prints a Table-1-style per-module breakdown: for each
// module, total time, items, and — when packets > 0 — cycles/packet at
// the given clock rate (cycles per nanosecond). Rows with no recorded
// time are skipped.
func (c *CycleStats) WriteBreakdown(w io.Writer, cyclesPerNs float64, packets uint64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %14s\n", "module", "time(ms)", "items", "cycles/pkt")
	for m := Module(0); m < NumModules; m++ {
		t := c.Total(m)
		if t.Nanos == 0 && t.Items == 0 {
			continue
		}
		cpp := "-"
		if packets > 0 {
			cpp = fmt.Sprintf("%.0f", float64(t.Nanos)*cyclesPerNs/float64(packets))
		}
		fmt.Fprintf(&b, "%-10s %12.2f %12d %14s\n",
			m, float64(t.Nanos)/1e6, t.Items, cpp)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Register exposes the cycle account through a metrics registry as
// tas_cycles_nanos_total / tas_cycles_items_total labeled by row and
// module.
func (c *CycleStats) Register(r *Registry) {
	for row := 0; row < c.Rows(); row++ {
		for m := Module(0); m < NumModules; m++ {
			row, m := row, m
			labels := []Label{L("core", c.RowName(row)), L("module", m.String())}
			r.CounterFunc("tas_cycles_nanos_total",
				"Wall nanoseconds attributed to a stack module on a core.",
				func() float64 { return float64(c.Get(row, m).Nanos) }, labels...)
			r.CounterFunc("tas_cycles_items_total",
				"Work items (packets, events, copies) attributed to a stack module on a core.",
				func() float64 { return float64(c.Get(row, m).Items) }, labels...)
		}
	}
}
