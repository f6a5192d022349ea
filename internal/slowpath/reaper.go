package slowpath

import (
	"time"

	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
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
func (s *Slowpath) noteResume(now time.Time) {
	s.mu.Lock()
	s.reapResume = now
	s.mu.Unlock()
}

// reapSweep scans registered contexts for missed heartbeats and reaps
// dead ones. It self-rate-limits to a quarter of AppTimeout so the
// per-control-interval cost is negligible.
func (s *Slowpath) reapSweep() {
	if s.cfg.AppTimeout <= 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if now.Sub(s.lastReap) < s.cfg.AppTimeout/4 {
		s.mu.Unlock()
		return
	}
	s.lastReap = now
	resume := s.reapResume
	s.mu.Unlock()
	if !resume.IsZero() && now.Sub(resume) < s.cfg.AppTimeout {
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
		if now.UnixNano()-lb > int64(s.cfg.AppTimeout) {
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
			if l.ctxID == id {
				delete(st.listeners, port)
				s.eng.Listeners.Remove(port)
				s.ListenersReaped.Add(1)
				// Nobody will ever Accept the queued connections of a dead
				// app's listener; return their accept-backlog charges now.
				if p := l.pending.Load(); p > 0 && st.gov != nil {
					st.gov.Charge(resource.PoolAccept, -int64(p))
				}
			}
		}
		for key, h := range st.half {
			if h.ctxID == id {
				st.dropHalf(key, h)
				s.HalfOpenReaped.Add(1)
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
		f.Lock()
		already := f.Aborted
		f.Aborted = true
		seq, ack := f.SeqNo, f.AckNo
		f.Unlock()
		if !already {
			s.sendCtlFlow(f, protocol.FlagRST|protocol.FlagACK, seq, ack)
			recordFlow(f, telemetry.FERstTx, seq, ack, 0, 0)
		}
		recordFlow(f, telemetry.FEReaped, seq, ack, 0, uint64(id))
		s.eng.Table.Remove(f.Key())
		s.reclaimFlowResources(f)
		s.mu.Lock()
		s.dropEntry(f)
		if _, ok := s.closing[f]; ok {
			delete(s.closing, f)
			s.charge(resource.PoolTimers, -1)
		}
		s.mu.Unlock()
		s.FlowsReaped.Add(1)
		s.retireRec(f)
	}

	s.AppsReaped.Add(1)

	// Release the context slot only after no live flow references the
	// id, so a reused slot cannot receive a dead flow's events.
	s.eng.UnregisterContext(ctx)
	// Unblock any application goroutine still parked on the context's
	// wakeup channel; it will observe the dead flag and fail fast.
	ctx.Wake()
}

// Counters is a consistent snapshot of the slow path's event counters.
type Counters struct {
	Established, Accepted, Rejected, Timeouts, Reinjected   uint64
	HandshakeRexmits, HandshakeTimeouts, FinRexmits, Aborts uint64
	AppsReaped, FlowsReaped, ListenersReaped                uint64
	HalfOpenReaped, SynBacklogDrops, AcceptQueueDrops       uint64
	SynCookiesSent, SynCookiesValidated                     uint64
	SynCookiesRejected, BlindRstDrops                       uint64
	FlowsReconstructed, RecoveryAborts, Panics              uint64
	CoreFailures, FlowsMigrated, CoreReadmits               uint64
	CoreDrainRequeued                                       uint64
	GovFlowDenied, GovIdleReclaimed                         uint64
	PersistProbes, KeepaliveProbesSent                      uint64
	PeerDeadZeroWindow, PeerDeadKeepalive                   uint64
	FinWait2Timeouts, TimeWaitReused                        uint64
	StrayRsts, FlowActivations                              uint64
}

// Counters returns a snapshot of the slow path's counters.
func (s *Slowpath) Counters() Counters {
	return Counters{
		Established: s.Established.Load(), Accepted: s.Accepted.Load(), Rejected: s.Rejected.Load(),
		Timeouts: s.Timeouts.Load(), Reinjected: s.Reinjected.Load(),
		HandshakeRexmits: s.HandshakeRexmits.Load(), HandshakeTimeouts: s.HandshakeTimeouts.Load(),
		FinRexmits: s.FinRexmits.Load(), Aborts: s.Aborts.Load(),
		AppsReaped: s.AppsReaped.Load(), FlowsReaped: s.FlowsReaped.Load(),
		ListenersReaped: s.ListenersReaped.Load(), HalfOpenReaped: s.HalfOpenReaped.Load(),
		SynBacklogDrops: s.SynBacklogDrops.Load(), AcceptQueueDrops: s.AcceptQueueDrops.Load(),
		SynCookiesSent: s.SynCookiesSent.Load(), SynCookiesValidated: s.SynCookiesValidated.Load(),
		SynCookiesRejected: s.SynCookiesRejected.Load(), BlindRstDrops: s.BlindRstDrops.Load(),
		FlowsReconstructed: s.FlowsReconstructed.Load(), RecoveryAborts: s.RecoveryAborts.Load(),
		Panics:       s.Panics.Load(),
		CoreFailures: s.CoreFailures.Load(), FlowsMigrated: s.FlowsMigrated.Load(),
		CoreReadmits: s.CoreReadmits.Load(), CoreDrainRequeued: s.CoreDrainRequeued.Load(),
		GovFlowDenied: s.GovFlowDenied.Load(), GovIdleReclaimed: s.GovIdleReclaimed.Load(),
		PersistProbes: s.PersistProbes.Load(), KeepaliveProbesSent: s.KeepaliveProbesSent.Load(),
		PeerDeadZeroWindow: s.PeerDeadZeroWindow.Load(), PeerDeadKeepalive: s.PeerDeadKeepalive.Load(),
		FinWait2Timeouts: s.FinWait2Timeouts.Load(), TimeWaitReused: s.TimeWaitReused.Load(),
		StrayRsts: s.StrayRsts.Load(), FlowActivations: s.FlowActivations.Load(),
	}
}

// AdoptCounters seeds this instance's counters from a predecessor's
// snapshot. In a real deployment the counters would live in shared
// memory and survive the crash with the flow state; here the restart
// path carries them over explicitly so exported metrics stay monotonic
// across warm restarts.
func (s *Slowpath) AdoptCounters(c Counters) {
	s.Established.Store(c.Established)
	s.Accepted.Store(c.Accepted)
	s.Rejected.Store(c.Rejected)
	s.Timeouts.Store(c.Timeouts)
	s.Reinjected.Store(c.Reinjected)
	s.HandshakeRexmits.Store(c.HandshakeRexmits)
	s.HandshakeTimeouts.Store(c.HandshakeTimeouts)
	s.FinRexmits.Store(c.FinRexmits)
	s.Aborts.Store(c.Aborts)
	s.AppsReaped.Store(c.AppsReaped)
	s.FlowsReaped.Store(c.FlowsReaped)
	s.ListenersReaped.Store(c.ListenersReaped)
	s.HalfOpenReaped.Store(c.HalfOpenReaped)
	s.SynBacklogDrops.Store(c.SynBacklogDrops)
	s.AcceptQueueDrops.Store(c.AcceptQueueDrops)
	s.SynCookiesSent.Store(c.SynCookiesSent)
	s.SynCookiesValidated.Store(c.SynCookiesValidated)
	s.SynCookiesRejected.Store(c.SynCookiesRejected)
	s.BlindRstDrops.Store(c.BlindRstDrops)
	s.FlowsReconstructed.Store(c.FlowsReconstructed)
	s.RecoveryAborts.Store(c.RecoveryAborts)
	s.Panics.Store(c.Panics)
	s.CoreFailures.Store(c.CoreFailures)
	s.FlowsMigrated.Store(c.FlowsMigrated)
	s.CoreReadmits.Store(c.CoreReadmits)
	s.CoreDrainRequeued.Store(c.CoreDrainRequeued)
	s.GovFlowDenied.Store(c.GovFlowDenied)
	s.GovIdleReclaimed.Store(c.GovIdleReclaimed)
	s.PersistProbes.Store(c.PersistProbes)
	s.KeepaliveProbesSent.Store(c.KeepaliveProbesSent)
	s.PeerDeadZeroWindow.Store(c.PeerDeadZeroWindow)
	s.PeerDeadKeepalive.Store(c.PeerDeadKeepalive)
	s.FinWait2Timeouts.Store(c.FinWait2Timeouts)
	s.TimeWaitReused.Store(c.TimeWaitReused)
	s.StrayRsts.Store(c.StrayRsts)
	s.FlowActivations.Store(c.FlowActivations)
}
