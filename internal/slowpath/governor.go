package slowpath

import (
	"sort"

	"repro/internal/flowstate"
	"repro/internal/resource"
)

// The slow path drives the resource governor's degradation ladder from
// its control tick. Enforcement is spread across the layers that own
// each mechanism — the fast path sheds bare SYNs at rung 2, listeners
// go stateless at rung 1 (cookiesEngaged), libtas clamps TX grants at
// rung 3 — but the ladder itself only moves here, one rung per tick,
// so pressure responses engage and release in order.

// governorTick runs once per control interval when a governor is
// configured: re-evaluate pool pressure against the hysteresis
// thresholds, publish the TX-grant clamp while rung 3 is engaged, and
// run the LRU idle reclaimer while rung 4 is.
func (s *Slowpath) governorTick(now int64) {
	g := s.cfg.Gov
	if g == nil {
		return
	}
	level, _ := g.Evaluate()
	if level >= resource.LevelClampTx {
		// Rung 3: shrink per-flow TX grants to a quarter buffer so many
		// flows share the strained payload pool instead of a few
		// filling it end to end.
		g.SetTxGrant(int64(s.cfg.TxBufSize / 4))
	} else {
		g.SetTxGrant(0)
	}
	if level >= resource.LevelReclaim {
		s.reclaimIdle(g, now)
	}
}

// reclaimIdle is the ladder's last rung: abort the longest-idle
// established flows (no packet or send activity for IdleReclaimAge) —
// best-effort RST to the peer, EvAborted to the app, full resource
// reclamation — up to ReclaimBatch per tick. Oldest-first, batched:
// pressure relief is incremental and never touches active transfers.
func (s *Slowpath) reclaimIdle(g *resource.Governor, now int64) {
	minAge := now - s.cfg.IdleReclaimAge.Nanoseconds()
	type victim struct {
		f       *flowstate.Flow
		touched int64
	}
	var victims []victim
	s.eng.Table.ForEach(func(f *flowstate.Flow) {
		if f.Retired() {
			return
		}
		if t := f.LastTouched(); t <= minAge {
			victims = append(victims, victim{f, t})
		}
	})
	if len(victims) == 0 {
		return
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].touched < victims[j].touched })
	if len(victims) > s.cfg.ReclaimBatch {
		victims = victims[:s.cfg.ReclaimBatch]
	}
	for _, v := range victims {
		s.abortFlow(v.f, 0)
		s.ctr.GovIdleReclaimed.Add(1)
		g.NoteShed(resource.LevelReclaim)
	}
}
