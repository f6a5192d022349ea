package slowpath

import (
	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// This file implements the slow path's peer-liveness machinery: the
// zero-window persist timer, TCP keepalives, and the TIME_WAIT 2MSL
// quarantine. All three run from the control tick — no free-running
// timer goroutines — so they stop with the event loop, are accounted
// to the governor, and survive a warm restart (Recover re-derives
// their state from the shared flow table and the engine-side
// quarantine).

// persistTick advances one flow's zero-window persist timer. The
// caller (tickFlow) has established that the peer advertises a zero
// window while we hold pending or in-flight data. An exhausted probe
// budget dooms the flow.
func (s *Slowpath) persistTick(f *flowstate.Flow, e *ccEntry, now int64) {
	if !e.persist.armed() {
		// Stall just detected: arm the timer; the first probe goes out
		// one PersistRTO from now (the window-closing ack often precedes
		// an imminent reopen — don't probe instantly).
		e.persist = startRetry(now, s.cfg.PersistRTO)
		return
	}
	if !e.persist.due(now) {
		return
	}
	if e.persist.attempts >= s.cfg.MaxPersistProbes {
		s.ctr.PeerDeadZeroWindow.Add(1)
		s.doom(f, fastpath.AbortPeerDead)
		return
	}
	e.persist.backoff(now, 32*s.cfg.PersistRTO)
	s.sendPersistProbe(f)
}

// sendPersistProbe emits a one-byte window probe: the unacknowledged
// byte at the head of the transmit buffer. A peer whose receiver is
// still full drops the byte and re-acks with window 0 (which the fast
// path deliberately does not count as a duplicate ack); a peer whose
// window has reopened acks with the new window, and that ack restarts
// transmission on the fast path.
func (s *Slowpath) sendPersistProbe(f *flowstate.Flow) {
	f.Lock()
	if f.Aborted || f.FinSent {
		f.Unlock()
		return
	}
	if f.TxSent == 0 {
		if f.TxPending() <= 0 {
			f.Unlock()
			return
		}
		// Commit the probe byte as in-flight so fast-path ack
		// processing treats it as ordinary outstanding data.
		f.SeqNo++
		f.TxSent = 1
		f.TxMax = max(f.TxMax, 1)
	}
	seq := f.SeqNo - f.TxSent
	payload := make([]byte, 1)
	f.TxBuf.ReadAt(f.TxBuf.Tail(), payload)
	ack := f.AckNo
	f.Unlock()
	s.ctr.PersistProbes.Add(1) // before the send (see abortFlow)
	s.sendCtlFlow(f, protocol.FlagACK|protocol.FlagPSH, seq, ack, payload)
	recordFlow(f, telemetry.FEPersistProbe, seq, ack, 1, 0)
}

// keepaliveTick advances one flow's keepalive state. Probing is
// restricted to fully idle flows (nothing in flight, nothing pending):
// a flow with data moving proves liveness through acks, and a one-byte
// probe below an active send window would be deposited as garbage via
// the receiver's out-of-order path. Reports false when the probe
// budget is exhausted and the flow was doomed.
func (s *Slowpath) keepaliveTick(f *flowstate.Flow, e *ccEntry, nowN int64, fs *flowSample) bool {
	if s.cfg.KeepaliveTime <= 0 || fs.finSent || fs.aborted || fs.outstanding != 0 || fs.pending != 0 {
		e.kaNext, e.kaProbes = 0, 0
		return true
	}
	idle := nowN - f.LastTouched()
	if idle < s.cfg.KeepaliveTime.Nanoseconds() {
		// Any received segment Touches the flow — a live peer's probe
		// response lands here and resets the probe count.
		e.kaNext, e.kaProbes = 0, 0
		return true
	}
	if e.kaNext != 0 && nowN < e.kaNext {
		return true
	}
	if e.kaProbes >= s.cfg.KeepaliveProbes {
		s.ctr.PeerDeadKeepalive.Add(1)
		s.doom(f, fastpath.AbortPeerDead)
		return false
	}
	e.kaProbes++
	e.kaNext = nowN + s.cfg.KeepaliveInterval.Nanoseconds()
	s.sendKeepalive(f)
	return true
}

// sendKeepalive emits a keepalive probe: one garbage byte at SeqNo-1,
// a sequence the peer has already acknowledged. The peer's receive
// path classifies it as a pure duplicate, discards the byte, and is
// guaranteed to answer with an ack — which Touches our flow and resets
// the idle clock. Sending our own probe does not Touch the flow, so an
// unanswered probe train converges on the dead-peer verdict.
func (s *Slowpath) sendKeepalive(f *flowstate.Flow) {
	f.Lock()
	seq := f.SeqNo - 1
	ack := f.AckNo
	f.Unlock()
	s.ctr.KeepaliveProbesSent.Add(1) // before the send (see abortFlow)
	s.sendCtlFlow(f, protocol.FlagACK, seq, ack, []byte{0})
	recordFlow(f, telemetry.FEKeepaliveProbe, seq, ack, 0, 0)
}

// enterTimeWait finishes an active close: the flow's final sequence
// state moves into the engine-side 2MSL quarantine (its own governed
// pool — a FIN storm holds tuples, not flow slots and buffers) and the
// flow itself is removed and fully reclaimed immediately.
func (s *Slowpath) enterTimeWait(f *flowstate.Flow) {
	f.Lock()
	finalSeq := f.SeqNo + 1 // SND.NXT: our FIN consumed one sequence number
	finalAck := f.AckNo     // RCV.NXT: already advanced past the peer's FIN
	f.Unlock()
	if g := s.cfg.Gov; g != nil {
		if err := g.Acquire(resource.PoolTimeWait, 1); err != nil {
			// Quarantine pool full: recycle the oldest entry rather than
			// refusing to quarantine the newest (Linux-style tw-bucket
			// recycling); the evicted entry's charge transfers.
			if !s.eng.TimeWait.EvictOldest() {
				g.Charge(resource.PoolTimeWait, 1)
			}
		}
	}
	s.eng.TimeWait.Insert(&flowstate.TimeWaitEntry{
		Key: f.Key(), FinalSeq: finalSeq, FinalAck: finalAck,
		Expiry: s.eng.NowNanos() + s.cfg.TimeWaitDuration.Nanoseconds(),
	})
	recordFlow(f, telemetry.FETimeWait, finalSeq, finalAck, 0, 0)
	s.removeFlow(f)
}

// timeWaitSweep expires quarantined tuples whose 2MSL clock has run
// out, returning their pool charges.
func (s *Slowpath) timeWaitSweep(now int64) {
	if n := s.eng.TimeWait.Expire(now); n > 0 {
		s.charge(resource.PoolTimeWait, -int64(n))
	}
}

// FinWait2Count returns the number of flows currently in FIN_WAIT_2
// (our FIN acknowledged, peer's direction still open). Counted from the
// control entries on demand, so the gauge cannot drift from them; a
// closing flow never parks, so the active list holds them all.
func (s *Slowpath) FinWait2Count() (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.active {
		if e.fw2 {
			n++
		}
	}
	return n
}

// TimeWaitCount returns the number of tuples in the 2MSL quarantine.
func (s *Slowpath) TimeWaitCount() int { return s.eng.TimeWait.Len() }
