package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FaultConfig parameterizes a FaultInjector. All probabilities are per
// packet and independent unless noted; every random decision is drawn
// from the injector's own seeded source, so a run with a fixed seed and
// a fixed event schedule is fully reproducible.
type FaultConfig struct {
	Seed int64 // seed for the injector's private random source

	// LossRate drops packets uniformly (Bernoulli) with this
	// probability.
	LossRate float64

	// GE, when non-nil, runs a Gilbert–Elliott two-state channel in
	// front of the link: packets traversing a bad-state burst are
	// dropped with GE.LossBad.
	GE *stats.GEConfig

	// ReorderProb delays a packet by a uniform random time in
	// (0, ReorderMaxDelay], letting later packets overtake it — bounded
	// reordering. ReorderMaxDelay defaults to 100us when a probability
	// is set without a bound.
	ReorderProb     float64
	ReorderMaxDelay sim.Time

	// DupProb delivers an extra copy of the packet.
	DupProb float64

	// CorruptProb flips one random byte of the packet's wire image. The
	// corrupted frame is then run through protocol.Parse, and — as on a
	// real NIC — dropped when the IP/TCP checksum rejects it
	// (protocol.ErrBadChecksum). Flips that land in the Ethernet header
	// survive parsing and are delivered corrupted.
	CorruptProb float64
}

// Verdict counter names exported by FaultInjector.Counters.Get.
const (
	CntDownDrops    = "down_drops"    // dropped while the link was down
	CntBurstDrops   = "burst_drops"   // Gilbert–Elliott bad-state drops
	CntLossDrops    = "loss_drops"    // uniform Bernoulli drops
	CntCorruptDrops = "corrupt_drops" // corrupted and checksum-rejected
	CntCorruptPass  = "corrupt_pass"  // corrupted but checksum-clean (header flip)
	CntReordered    = "reordered"     // held back to be overtaken
	CntDuplicated   = "duplicated"    // extra copies injected
	CntPassed       = "passed"        // delivered unmodified
)

// FaultInjector is a deterministic, scriptable fault source attachable
// to any Port (Port.SetFaultInjector). It decides the fate of each
// packet at enqueue time and schedules link up/down transitions on the
// simulation clock. One injector drives one port; share nothing.
type FaultInjector struct {
	eng *sim.Engine
	cfg FaultConfig
	rng *rand.Rand
	ge  *stats.GilbertElliott

	down bool

	// Counters tallies every verdict the injector hands out.
	Counters FaultCounters
}

// FaultCounters tallies verdicts with pre-registered atomics: filter
// runs once per packet, where a mutex-protected map lookup by name is
// measurable overhead; names are resolved only on the read side.
type FaultCounters struct {
	downDrops, burstDrops, lossDrops, corruptDrops atomic.Uint64
	corruptPass, reordered, duplicated, passed     atomic.Uint64
}

// Get returns the named counter (0 for unknown names).
func (c *FaultCounters) Get(name string) uint64 {
	switch name {
	case CntDownDrops:
		return c.downDrops.Load()
	case CntBurstDrops:
		return c.burstDrops.Load()
	case CntLossDrops:
		return c.lossDrops.Load()
	case CntCorruptDrops:
		return c.corruptDrops.Load()
	case CntCorruptPass:
		return c.corruptPass.Load()
	case CntReordered:
		return c.reordered.Load()
	case CntDuplicated:
		return c.duplicated.Load()
	case CntPassed:
		return c.passed.Load()
	}
	return 0
}

// Snapshot returns the non-zero counters by name.
func (c *FaultCounters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, 8)
	for _, name := range []string{
		CntDownDrops, CntBurstDrops, CntLossDrops, CntCorruptDrops,
		CntCorruptPass, CntReordered, CntDuplicated, CntPassed,
	} {
		if v := c.Get(name); v > 0 {
			out[name] = v
		}
	}
	return out
}

// String renders the counters in sorted-name order ("a=1 b=2").
func (c *FaultCounters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%d", k, snap[k])
	}
	return strings.Join(parts, " ")
}

// NewFaultInjector builds an injector scheduling on eng's clock.
func NewFaultInjector(eng *sim.Engine, cfg FaultConfig) *FaultInjector {
	if cfg.ReorderProb > 0 && cfg.ReorderMaxDelay <= 0 {
		cfg.ReorderMaxDelay = 100 * sim.Microsecond
	}
	fi := &FaultInjector{
		eng: eng,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.GE != nil {
		fi.ge = stats.NewGilbertElliott(fi.rng, *cfg.GE)
	}
	return fi
}

// SetDown forces the link state immediately.
func (fi *FaultInjector) SetDown(down bool) { fi.down = down }

// Down reports whether the link is currently down.
func (fi *FaultInjector) Down() bool { return fi.down }

// ScheduleDown takes the link down at absolute sim time t.
func (fi *FaultInjector) ScheduleDown(t sim.Time) {
	fi.eng.At(t, func() { fi.down = true })
}

// ScheduleUp restores the link at absolute sim time t.
func (fi *FaultInjector) ScheduleUp(t sim.Time) {
	fi.eng.At(t, func() { fi.down = false })
}

// SchedulePartition takes the link down during [from, to).
func (fi *FaultInjector) SchedulePartition(from, to sim.Time) {
	fi.ScheduleDown(from)
	fi.ScheduleUp(to)
}

// ScheduleFlaps scripts n down/up cycles starting at start: down for
// downFor, then up for upFor, repeated.
func (fi *FaultInjector) ScheduleFlaps(start, downFor, upFor sim.Time, n int) {
	t := start
	for i := 0; i < n; i++ {
		fi.SchedulePartition(t, t+downFor)
		t += downFor + upFor
	}
}

// verdict is the outcome of filtering one packet.
type verdict struct {
	drop  bool
	dup   bool
	delay sim.Time // >0: enqueue after this extra delay (reordering)
	pkt   *protocol.Packet
}

// filter decides the fate of one packet about to enter the port queue.
func (fi *FaultInjector) filter(pkt *protocol.Packet) verdict {
	if fi.down {
		fi.Counters.downDrops.Add(1)
		return verdict{drop: true}
	}
	if fi.ge != nil && fi.ge.Drop() {
		fi.Counters.burstDrops.Add(1)
		return verdict{drop: true}
	}
	if fi.cfg.LossRate > 0 && fi.rng.Float64() < fi.cfg.LossRate {
		fi.Counters.lossDrops.Add(1)
		return verdict{drop: true}
	}
	v := verdict{pkt: pkt}
	if fi.cfg.CorruptProb > 0 && fi.rng.Float64() < fi.cfg.CorruptProb {
		corrupted, rejected := fi.corrupt(pkt)
		if rejected {
			fi.Counters.corruptDrops.Add(1)
			return verdict{drop: true}
		}
		fi.Counters.corruptPass.Add(1)
		v.pkt = corrupted
	}
	if fi.cfg.DupProb > 0 && fi.rng.Float64() < fi.cfg.DupProb {
		fi.Counters.duplicated.Add(1)
		v.dup = true
	}
	if fi.cfg.ReorderProb > 0 && fi.rng.Float64() < fi.cfg.ReorderProb {
		fi.Counters.reordered.Add(1)
		v.delay = 1 + sim.Time(fi.rng.Int63n(int64(fi.cfg.ReorderMaxDelay)))
		return v
	}
	fi.Counters.passed.Add(1)
	return v
}

// corrupt flips one random byte of the packet's wire image and re-runs
// it through the receive-side parser. It returns the surviving packet
// (when the flip landed outside the checksummed region) and whether the
// frame was rejected by protocol.ErrBadChecksum — the NIC-discard path.
func (fi *FaultInjector) corrupt(pkt *protocol.Packet) (*protocol.Packet, bool) {
	buf := protocol.Marshal(pkt)
	i := fi.rng.Intn(len(buf))
	buf[i] ^= 1 << uint(fi.rng.Intn(8))
	parsed, err := protocol.Parse(buf)
	if err != nil {
		return nil, true
	}
	return parsed, false
}
