package slowpath

import (
	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// This file implements the application-failure half of TAS's isolation
// story (§3.3): the per-application stack is untrusted, so TAS itself
// must take back everything a dead application held — otherwise one
// dead app leaks flows, ports, context slots, and payload buffers
// forever, starving the apps that are still alive.
//
// In the paper the kernel tells TAS when an application process exits.
// Here the exit is Engine.ExitContext (libtas KillApp, tas Context.Kill):
// it flags the context engine-side and rings the slow path's doorbell,
// and the slow path reaps the context on that wake or its next tick. A
// stalled but running application is not an exit and is never reaped.

// reapPending reaps the exited contexts if an application has exited since
// the last call: the registry is walked only when an exit is pending.
func (s *Slowpath) reapPending() {
	if s.eng.TakeExits() {
		s.reapExited()
	}
}

// reapExited reaps every exited context that is not yet dead, charging
// the walk to the reaper's cycle account.
func (s *Slowpath) reapExited() {
	t := s.lap(0, 0, 0)
	for _, ctx := range s.eng.Contexts() {
		if ctx != nil && ctx.Exited() {
			s.ReapContext(ctx)
		}
	}
	s.lap(telemetry.ModReaper, t, 1)
}

// ReapContext declares one application context dead and reclaims every
// resource it held: listen ports, half-open handshakes, established
// flows (best-effort RST to each peer, flow table entry, congestion
// state, payload buffers), and finally the fast-path
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
	s.hs.mu.Lock()
	for port, l := range s.hs.listeners {
		if l.CtxID == id {
			delete(s.hs.listeners, port)
			s.eng.Listeners.Remove(port)
			s.ctr.ListenersReaped.Add(1)
			// Nobody will ever Accept the queued connections of a dead
			// app's listener; return their accept-backlog charges now.
			if p := l.Pending.Load(); p > 0 {
				s.charge(resource.PoolAccept, -int64(p))
			}
		}
	}
	for _, h := range s.hs.half {
		if h.ctxID == id {
			s.dropHalf(h)
			s.ctr.HalfOpenReaped.Add(1)
		}
	}
	s.hs.mu.Unlock()

	// Established flows: abort toward the peer and free everything.
	var flows []*flowstate.Flow
	s.eng.Table.ForEach(func(f *flowstate.Flow) {
		f.Lock() // Rebind moves a flow between contexts under its lock
		mine := f.Context == id
		f.Unlock()
		if mine {
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
