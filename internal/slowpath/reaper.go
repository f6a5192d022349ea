package slowpath

import (
	"time"

	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// This file implements the application-failure half of TAS's isolation
// story (§3.3): the per-application stack is untrusted, so TAS itself
// must detect a crashed or wedged application and take back everything
// it held — otherwise one dead app leaks flows, ports, context slots,
// and payload buffers forever, starving the apps that are still alive.
//
// Liveness is epoch/heartbeat based: each libtas context runs a
// keepalive goroutine (the in-process stand-in for the paper's kernel
// notification when an application process exits) that stamps the
// fast-path context. The slow path sweeps those stamps and reaps any
// context that has gone silent for AppTimeout.

// HeartbeatInterval returns the cadence applications should beat at to
// stay comfortably inside AppTimeout (one quarter of it).
func (s *Slowpath) HeartbeatInterval() time.Duration {
	if s.cfg.AppTimeout <= 0 {
		return time.Second
	}
	iv := s.cfg.AppTimeout / 4
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	return iv
}

// stallGap is the event-loop gap beyond which wall-clock liveness
// comparisons are considered unsafe: well above normal tick jitter,
// well below AppTimeout.
func (s *Slowpath) stallGap() time.Duration {
	g := 4 * s.cfg.ControlInterval
	if s.cfg.AppTimeout > 0 && g < s.cfg.AppTimeout/4 {
		g = s.cfg.AppTimeout / 4
	}
	return g
}

// noteResume opens the reaper's grace window: the slow path just came
// back from a stall or a warm restart, during which applications may
// have been unable to make progress (an app blocked on a control-plane
// response beats from its keepalive, but a beat-on-activity low-level
// app goes quiet). Resume time counts as an implicit beat for every
// context, so only apps that stay silent for a further AppTimeout are
// reaped — the mass-reap false positive the grace window exists to
// prevent.
func (s *Slowpath) noteResume(now int64) {
	s.mu.Lock()
	s.reapResume = now
	s.mu.Unlock()
}

// reapSweep scans registered contexts for missed heartbeats and reaps
// dead ones. It self-rate-limits to a quarter of AppTimeout so the
// per-control-interval cost is negligible. now and the beats are engine
// clock.
func (s *Slowpath) reapSweep(now int64) {
	timeout := s.cfg.AppTimeout.Nanoseconds()
	if timeout <= 0 {
		return
	}
	s.mu.Lock()
	if now-s.lastReap < timeout/4 {
		s.mu.Unlock()
		return
	}
	s.lastReap = now
	resume := s.reapResume
	s.mu.Unlock()
	if resume != 0 && now-resume < timeout {
		// Post-stall/restart grace: last-beat stamps predating the gap
		// prove nothing about liveness. Resume reaping only after every
		// live app has had a full AppTimeout to beat again.
		return
	}

	for _, ctx := range s.eng.Contexts() {
		if ctx == nil || ctx.Dead() {
			continue
		}
		lb := ctx.LastBeat()
		if lb == 0 {
			continue // liveness never enabled (raw low-level context)
		}
		if now-lb > timeout {
			s.ReapContext(ctx)
		}
	}
}

// ReapContext declares one application context dead and reclaims every
// resource it held: listen ports, half-open handshakes, established
// flows (best-effort RST to each peer, flow table entry, congestion
// state, rate-bucket slot, payload buffers), and finally the fast-path
// context slot itself. Safe to call at most once per context; later
// calls are no-ops because the context is already marked dead.
func (s *Slowpath) ReapContext(ctx *fastpath.Context) {
	if ctx.Dead() {
		return
	}
	ctx.MarkDead()
	id := uint16(ctx.ID)

	// Listen ports and half-open handshakes go first so no new flows
	// are installed for the dead app while we sweep the table.
	for _, st := range s.stripes {
		st.mu.Lock()
		for port, l := range st.listeners {
			if l.CtxID == id {
				delete(st.listeners, port)
				s.eng.Listeners.Remove(port)
				s.ctr.ListenersReaped.Add(1)
				// Nobody will ever Accept the queued connections of a dead
				// app's listener; return their accept-backlog charges now.
				if p := l.Pending.Load(); p > 0 && st.gov != nil {
					st.gov.Charge(resource.PoolAccept, -int64(p))
				}
			}
		}
		for key, h := range st.half {
			if h.ctxID == id {
				st.dropHalf(key, h)
				s.ctr.HalfOpenReaped.Add(1)
			}
		}
		st.mu.Unlock()
	}

	// Established flows: abort toward the peer and free everything.
	var flows []*flowstate.Flow
	s.eng.Table.ForEach(func(f *flowstate.Flow) {
		if f.Context == id {
			flows = append(flows, f)
		}
	})
	for _, f := range flows {
		s.ctr.FlowsReaped.Add(1)
		seq, ack, first := markAborted(f)
		if first {
			s.sendRst(f, seq, ack)
		}
		recordFlow(f, telemetry.FEReaped, seq, ack, 0, uint64(id))
		s.removeFlow(f)
	}

	s.ctr.AppsReaped.Add(1)

	// Release the context slot only after no live flow references the
	// id, so a reused slot cannot receive a dead flow's events.
	s.eng.UnregisterContext(ctx)
	// Unblock any application goroutine still parked on the context's
	// wakeup channel; it will observe the dead flag and fail fast.
	ctx.Wake()
}
