package fastpath

import (
	"time"

	"repro/internal/telemetry"
)

// This file implements the fast path's view of the slow-path failure
// domain. TAS's architecture (§3.1/§3.2) puts everything the common
// case needs — flow table, sequence state, payload rings, rate buckets
// — in shared memory, so the fast path can keep serving established
// flows when the slow path wedges or crashes. What it cannot do without
// the slow path is admit new connections (handshakes), detect RTOs, or
// reap; degraded mode makes that boundary explicit:
//
//   - The slow path stamps a heartbeat (SlowpathBeat) from its event
//     loop, the shared-memory analogue of a liveness word.
//   - A watchdog goroutine — not the packet-processing cores — compares
//     the stamp against SlowPathTimeout, so a healthy system pays zero
//     additional hot-path cost; cores only read the degraded flag on
//     the (already exceptional) exception path.
//   - While degraded, bare SYNs are shed at the door (toSlowPath) and
//     libtas fails Connect/Listen fast with ErrSlowPathDown.
//
// Transitions are counted, timed into an outage-duration histogram, and
// recorded on the flight recorder's synthetic "slowpath" ring.

// slowpathRingKey is the flight-recorder key for control-plane
// lifecycle events that belong to no single flow.
const slowpathRingKey = "slowpath"

// SlowpathBeat stamps the slow-path heartbeat on the engine clock; the
// slow path calls it once per event-loop iteration.
func (e *Engine) SlowpathBeat() { e.slowBeat.Store(e.refreshCoarse()) }

// Degraded reports whether the engine considers the slow path down
// (heartbeat stale beyond SlowPathTimeout).
func (e *Engine) Degraded() bool { return e.degraded.Load() }

// OutageStats summarizes slow-path outages as observed by the watchdog.
type OutageStats struct {
	Outages  uint64        // completed + in-progress degraded episodes
	Total    time.Duration // cumulative outage time (including current)
	Degraded bool          // currently in degraded mode
}

// Outages returns the watchdog's outage accounting.
func (e *Engine) Outages() OutageStats {
	st := OutageStats{Outages: e.outages.Load(), Degraded: e.degraded.Load()}
	st.Total = time.Duration(e.outageNanos.Load())
	if st.Degraded {
		st.Total += time.Duration(e.nowNanos() - e.outageStart.Load())
	}
	return st
}

// OutageHistogram returns the outage-duration histogram in µs (nil
// when telemetry is off).
func (e *Engine) OutageHistogram() *telemetry.LogHist { return e.outageHist }

// watchSlowpath is the heartbeat watchdog: a dedicated goroutine that
// polls the slow-path heartbeat at a quarter of the timeout and flips
// the degraded flag on staleness. Keeping the check off the fast-path
// cores is what makes the healthy-case cost zero.
func (e *Engine) watchSlowpath() {
	period := e.cfg.SlowPathTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-e.watchStop:
			return
		case <-t.C:
		}
		now := e.nowNanos()
		stale := now-e.slowBeat.Load() > int64(e.cfg.SlowPathTimeout)
		switch {
		case stale && !e.degraded.Load():
			e.outageStart.Store(now)
			e.outages.Add(1)
			e.degraded.Store(true)
			e.recordTransition(telemetry.FEDegraded, 0)
		case !stale && e.degraded.Load():
			dur := now - e.outageStart.Load()
			e.outageNanos.Add(dur)
			e.degraded.Store(false)
			if e.outageHist != nil {
				e.outageHist.Observe(uint64(dur)/1e3, 0)
			}
			e.recordTransition(telemetry.FERecovered, uint64(dur))
		}
	}
}

// recordTransition logs a degraded-mode transition on the synthetic
// slow-path flight ring (aux = outage nanos for FERecovered).
func (e *Engine) recordTransition(kind telemetry.FlowEventKind, aux uint64) {
	if telem := e.telem; telem != nil {
		telem.Recorder.Ring(slowpathRingKey).Record(kind, 0, 0, 0, aux)
	}
}
