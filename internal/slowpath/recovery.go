package slowpath

import (
	"repro/internal/flowstate"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// This file implements slow-path warm restart. The design leans on the
// same property that lets the fast path survive a slow-path crash
// (§3.1): everything a connection needs in the common case — the flow
// table's Table-3 records with sequence state, the shmring payload
// buffers with their positions, the rate buckets, the listener registry
// — lives on the engine side of the boundary. The slow path's private
// maps (cc entries with their timers, half-opens) are pure derived or
// in-progress state: derived state is rebuilt from shared memory, and
// in-progress state that cannot be proven from shared memory is
// abandoned (half-open handshakes) or aborted (inconsistent flows).

// RecoveryStats reports what a warm restart rebuilt.
type RecoveryStats struct {
	FlowsReconstructed int // established flows with rebuilt cc/RTO state
	FlowsAborted       int // flows whose state could not be proven; RST + removed
	ClosingResumed     int // FIN-in-flight teardowns whose timers were re-armed
	ListenersRebuilt   int // listening ports readopted from the shared registry
}

// Recover reconstructs this instance's control state from the engine's
// shared memory. Call it on a fresh (not yet started) Slowpath created
// over the engine a previous instance crashed on, then Start it:
//
//	dead.Kill()
//	ns := slowpath.New(eng, cfg)
//	rep := ns.Recover()
//	ns.Start()
//
// Reconstruction rules:
//
//   - Listening ports are readopted from the engine's listener table,
//     including the live accept-depth gauge the application side holds.
//   - A context whose application exited (the flag is engine-side, so
//     an exit the crashed instance never saw survives) is reaped before
//     any flow is readopted: its flows, listeners and slot go as a live
//     reap would take them.
//   - Every flow in the flow table whose context is alive and whose
//     buffers are intact gets a fresh congestion controller (seeded
//     into its existing rate bucket) and an active cc entry whose
//     lastUna is computed from the recorded SeqNo/TxSent — so RTO
//     detection re-arms exactly where the crashed instance left off;
//     flows the crashed instance had parked re-park after a few ticks.
//   - A flow the application asked to close resumes its close from the
//     shared flags, like every other Fin* decision: a FIN still waiting
//     for the transmit buffer to drain waits again (its bound restarts),
//     and a FIN in flight or in FIN_WAIT_2 gets its timer re-armed.
//   - A flow that cannot be proven consistent — context gone or dead,
//     buffers reclaimed, or already aborted — is aborted: best-effort
//     RST, state reclaimed, counted in RecoveryAborts.
//   - Half-open handshakes died with the old instance; peers re-drive
//     passive opens by retransmitting their SYN, and active opens
//     surface a timeout to the caller.
func (s *Slowpath) Recover() RecoveryStats {
	var rep RecoveryStats
	now := s.eng.NowNanos()

	// Reconcile the governor pools whose entries died with the crashed
	// instance: half-open handshakes are simply gone (peers re-drive
	// them), FIN timers are re-armed below as flows are readopted, and
	// the accept backlog is recomputed from the surviving listener
	// gauges. Flow, payload, and context charges track engine-side state
	// that outlived the crash, so they carry over untouched.
	if g := s.cfg.Gov; g != nil {
		g.Reset(resource.PoolHalfOpen, 0)
		g.Reset(resource.PoolTimers, 0)
		var accept int64
		s.eng.Listeners.ForEach(func(e *flowstate.ListenerEntry) {
			accept += int64(e.Pending.Load())
		})
		g.Reset(resource.PoolAccept, accept)
		// The TIME_WAIT quarantine lives on the engine side and survived
		// the crash intact; recompute its charge from the table itself.
		g.Reset(resource.PoolTimeWait, int64(s.eng.TimeWait.Len()))
	}

	// Listening ports from the shared registry.
	// SYN-cookie pressure windows restart cold, but the cookie jar
	// itself lives in the engine: cookies the crashed instance issued
	// still validate here, under the same key epochs.
	s.eng.Listeners.ForEach(func(e *flowstate.ListenerEntry) {
		s.hs.mu.Lock()
		s.hs.listeners[e.Port] = &listener{ListenerEntry: e}
		s.hs.mu.Unlock()
		rep.ListenersRebuilt++
	})

	// Applications that exited while no instance was reaping.
	s.reapExited()

	// Established flows from the flow table.
	var doomed, finished []*flowstate.Flow
	s.eng.Table.ForEach(func(f *flowstate.Flow) {
		f.Lock()
		aborted := f.Aborted
		ctxID := f.Context
		buffersGone := f.RxBuf == nil || f.TxBuf == nil ||
			f.RxBuf.Reclaimed() || f.TxBuf.Reclaimed()
		seq, txSent := f.SeqNo, f.TxSent
		ack := f.AckNo
		closeReq := f.CloseRequested
		finPending := f.FinSent && !f.FinAcked
		finWait2 := f.FinSent && f.FinAcked && !f.FinReceived
		finDone := f.FinSent && f.FinAcked && f.FinReceived
		// The park flag is shared state the crashed instance set; its
		// parked list died with it. Every survivor restarts active.
		f.Parked = false
		f.Unlock()

		ctx := s.eng.ContextByID(ctxID)
		if aborted || buffersGone || ctx == nil || ctx.Dead() {
			doomed = append(doomed, f)
			return
		}
		if finDone {
			// The crash fell between the last FIN exchange and the old
			// instance's removal step: finish the close below (TIME_WAIT
			// or straight removal) instead of reconstructing cc state for
			// a connection that is over.
			finished = append(finished, f)
			return
		}

		// Rebuild congestion/timeout state. The rate bucket survived in
		// the flow and kept enforcing the crashed instance's last rate;
		// the fresh controller restarts from its initial rate and
		// converges from there.
		ctrl := s.cfg.NewController()
		f.RateBucket.SetRate(ctrl.Rate())
		s.mu.Lock()
		e := s.adoptFlow(f, ctrl, seq-txSent, now)
		if closeReq {
			e.closeAt = now
		}
		if finPending || finWait2 {
			// Mid-FIN_WAIT_2 at the crash re-arms a fresh full timeout —
			// the old deadline died with the old instance, and a fresh
			// bound errs toward the peer finishing its close.
			s.armFin(e, seq, now, finWait2)
			rep.ClosingResumed++
		}
		s.mu.Unlock()
		s.ctr.FlowsReconstructed.Add(1)
		recordFlow(f, telemetry.FEReconstructed, seq, ack, 0, uint64(txSent))
		rep.FlowsReconstructed++
	})

	// Flows whose state cannot be proven: abort rather than resume
	// control decisions over garbage.
	for _, f := range doomed {
		s.recoveryAbort(f)
		rep.FlowsAborted++
	}
	// Closes the crash interrupted between FIN completion and removal.
	for _, f := range finished {
		s.finishClose(f)
	}

	// Activations queued toward the crashed instance are moot: every
	// surviving flow was just readopted active with its flag cleared.
	for {
		if _, ok := s.eng.TakeActivation(); !ok {
			break
		}
	}

	// Core-failure verdicts survive in the engine (failed flags + RSS
	// exclusion mask), but the staleness clocks must restart at resume
	// time — the outage gap proves nothing about core liveness either way.
	for i := range s.coresW {
		s.coresW[i].lastChange = now
		s.coresW[i].lastBeat = s.eng.CoreBeat(i)
	}
	return rep
}

// recoveryAbort tears down a flow whose state a warm restart could not
// prove consistent: best-effort RST to the peer, EvAborted toward the
// owning context if one still exists, and full resource reclamation.
func (s *Slowpath) recoveryAbort(f *flowstate.Flow) {
	s.ctr.RecoveryAborts.Add(1)
	seq, ack, first := markAborted(f)
	// A flow whose receive buffer is gone has no window to advertise.
	if first && f.RxBuf != nil && !f.RxBuf.Reclaimed() {
		s.sendRst(f, seq, ack)
	}
	recordFlow(f, telemetry.FEAborted, seq, ack, 0, 0)
	s.removeFlow(f)
	s.notifyAborted(f, 0)
}
