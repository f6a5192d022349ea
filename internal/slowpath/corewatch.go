package slowpath

import (
	"repro/internal/flowstate"
	"repro/internal/telemetry"
)

// This file implements the slow-path half of the data-plane failure
// domain (the engine half is fastpath/corefault.go). The slow path
// already owns the repair tools: §3.4's core scaling eagerly rewrites
// the RSS redirection table, and per-flow spinlocks make packets that
// land on the wrong core safe. The core watchdog turns those tools on a
// failed core:
//
//   - Each control tick, coreSweep samples every core's beat counter
//     (one atomic load per core; the cores pay one atomic add per loop
//     iteration — no clock reads on the hot path).
//   - A counter that has not advanced for CoreTimeout is a dead or
//     wedged core: the sweep marks it failed (RSS exclusion mask +
//     table rewrite, so no scale event ever steers buckets back),
//     drains the packets stranded in its queues if the goroutine has
//     provably exited, and migrates its flows to the survivors —
//     per-flow state re-adopted under the flow spinlock, retransmission
//     timers re-armed, unacked data rewound go-back-N style, and TX
//     kicked so the new owner resumes immediately instead of waiting
//     out a full RTO.
//   - A failed core that beats again (ReviveCore relaunched it, or a
//     stall ended) is re-admitted after coreReadmitBeats observed
//     beats, via the normal scale-up path (ClearCoreFailed rewrites the
//     table to include it again).

// coreReadmitBeats is how many heartbeat advances a failed core must
// show before the watchdog folds it back into RSS steering — enough to
// prove the run loop is really iterating, small enough that recovery
// completes within a few blocked-core wakeup periods (~100ms each).
const coreReadmitBeats = 3

// coreWatch is the watchdog's per-core view. The verdict itself is the
// engine's failed flag, so it outlives the instance: a core a previous
// slow path failed stays excluded until it earns re-admission from this
// one.
type coreWatch struct {
	lastBeat   uint64 // counter value at the previous sweep
	lastChange int64  // when the counter last advanced (engine clock)
	cleanBeats int    // advances observed since failure, toward re-admission
}

// coreSweep is the per-control-tick core-liveness check. Healthy-case
// cost is one atomic load and one comparison per core.
func (s *Slowpath) coreSweep(now int64) {
	if s.cfg.CoreTimeout <= 0 {
		return
	}
	for i := range s.coresW {
		w := &s.coresW[i]
		beat := s.eng.CoreBeat(i)
		advanced := beat != w.lastBeat
		if advanced {
			w.lastBeat = beat
			w.lastChange = now
		}
		if w.lastChange == 0 {
			// First observation of this core: start the staleness clock
			// now rather than at the zero time.
			w.lastChange = now
			continue
		}
		if !s.eng.CoreFailed(i) {
			// Even a fully idle core advances its counter every blocked-
			// wakeup period (≤100ms), so CoreTimeout of silence means the
			// goroutine is gone (killed, panicked) or wedged mid-iteration.
			if !advanced && now-w.lastChange > s.cfg.CoreTimeout.Nanoseconds() {
				// Never condemn the last eligible core: with everyone else
				// already failed there is nothing to re-steer to, so the
				// verdict would only blackhole traffic that the core — if
				// it is merely starved, not dead — could still serve. The
				// verdict lands later if another core earns re-admission
				// first.
				survivors := 0
				for j := range s.coresW {
					if j != i && !s.eng.CoreFailed(j) {
						survivors++
					}
				}
				if survivors == 0 {
					continue
				}
				w.cleanBeats = 0
				s.failCore(i)
			}
			continue
		}
		// Failed: watch for resurrection. cleanBeats counts observed
		// advances (not consecutive sweeps — a healthy blocked core beats
		// at ~10Hz, slower than a fine control interval samples).
		if advanced {
			w.cleanBeats++
			if w.cleanBeats >= coreReadmitBeats {
				w.cleanBeats = 0
				s.eng.ClearCoreFailed(i)
				s.ctr.CoreReadmits.Add(1)
			}
		}
	}
}

// failCore executes the failure verdict for core i: exclude it from
// steering, recover the work stranded in its queues, and migrate its
// flows to the surviving cores.
func (s *Slowpath) failCore(i int) {
	t0 := s.lap(0, 0, 0)

	// Snapshot the victims before the rewrite: after MarkCoreFailed the
	// RSS table no longer names the dead core, so ownership must be read
	// first.
	var victims []*flowstate.Flow
	s.eng.Table.ForEach(func(f *flowstate.Flow) {
		if s.eng.CoreForFlow(f) == i {
			victims = append(victims, f)
		}
	})

	s.eng.MarkCoreFailed(i)
	requeued := s.eng.DrainFailedCore(i)

	migrated := 0
	for _, f := range victims {
		if s.migrateFlow(f, i) {
			migrated++
		}
	}

	s.ctr.CoreFailures.Add(1)
	s.ctr.FlowsMigrated.Add(uint64(migrated))
	s.ctr.CoreDrainRequeued.Add(uint64(requeued))
	s.lap(telemetry.ModMigrate, t0, uint64(migrated))
}

// migrateFlow re-adopts one flow onto its new owner after the old
// core's failure. Under the flow spinlock the unacked tail is rewound
// go-back-N style (the same reset the RTO path uses: segments the dead
// core may or may not have transmitted are treated as unsent), the cc
// entry's timeout state is re-armed at the rewound left edge, and TX is
// kicked so the surviving core — which the RSS rewrite now names —
// resumes the flow immediately instead of hanging until an RTO fires.
// A parked flow goes back on the control tick.
func (s *Slowpath) migrateFlow(f *flowstate.Flow, from int) bool {
	f.Lock()
	if f.Aborted {
		f.Unlock()
		return false
	}
	f.SeqNo -= f.TxSent // reset as if unsent (go-back-N rewind)
	f.TxSent = 0
	seq, ack := f.SeqNo, f.AckNo
	f.Unlock()

	s.mu.Lock()
	if e := s.cc[f]; e != nil {
		e.lastUna = seq
		e.clearStall()
		e.consecTimeouts = 0
		if e.idx < 0 {
			// A parked victim has nothing to rewind, but the kick below may
			// find unsent bytes: supervise the new owner's first
			// transmission from the start.
			s.unpark(e, s.eng.NowNanos())
		}
	}
	s.mu.Unlock()

	recordFlow(f, telemetry.FEMigrated, seq, ack, 0, uint64(from))
	s.eng.KickFlow(f)
	return true
}
