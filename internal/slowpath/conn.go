package slowpath

import (
	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/shmring"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// handleException processes one packet the fast path could not handle:
// connection control (SYN, SYN|ACK, FIN, RST), handshake-completing
// ACKs, and packets that raced flow installation.
func (s *Slowpath) handleException(pkt *protocol.Packet) {
	key := pkt.RxKey()
	flags := pkt.Flags

	switch {
	case flags.Has(protocol.FlagSYN | protocol.FlagACK):
		s.handleSynAck(key, pkt)
	case flags.Has(protocol.FlagSYN):
		s.handleSyn(key, pkt)
	case flags.Has(protocol.FlagRST):
		s.handleRst(key, pkt)
	case flags.Has(protocol.FlagFIN):
		s.handleFin(key, pkt)
	default:
		s.handlePlain(key, pkt)
	}
}

// challengeAck answers a suspicious control packet with a bare ACK of
// the flow's current state (RFC 5961 §3/§4): a legitimate but
// desynchronized peer learns the exact sequence it must use, while a
// blind attacker learns nothing. Globally rate-limited so the response
// itself cannot be turned into a reflection amplifier.
func (s *Slowpath) challengeAck(f *flowstate.Flow) {
	if s.eng.Challenge == nil || !s.eng.Challenge.Allow(s.eng.NowNanos()) {
		return
	}
	f.Lock()
	seq, ack := f.SeqNo, f.AckNo
	f.Unlock()
	s.sendCtlFlow(f, protocol.FlagACK, seq, ack, nil)
	recordFlow(f, telemetry.FEChallengeTx, seq, ack, 0, 0)
}

// handleSyn: a remote open. If a listener exists, reply SYNACK and
// remember the half-open connection (or, under SYN-flood pressure,
// answer statelessly with a cookie); otherwise refuse with RST.
func (s *Slowpath) handleSyn(key protocol.FlowKey, pkt *protocol.Packet) {
	// RFC 5961 §4: a SYN matching an established connection must not
	// disturb it — a blind attacker can land a spoofed SYN anywhere in
	// the window. Answer with a rate-limited challenge ACK; a genuinely
	// restarted peer responds with an exact-sequence RST that passes
	// handleRst's validation.
	if f := s.eng.Table.Lookup(key); f != nil {
		s.challengeAck(f)
		return
	}
	if tw := s.eng.TimeWait.Lookup(key); tw != nil {
		if tcp.SeqGT(pkt.Seq, tw.FinalAck) {
			// RFC 6191 / RFC 1122 §4.2.2.13: a SYN whose ISN is above the
			// quarantined incarnation's final receive state cannot be an
			// old duplicate — recycle the quarantine early and open the
			// new incarnation.
			if s.eng.TimeWait.Remove(key) {
				s.charge(resource.PoolTimeWait, -1)
			}
			s.ctr.TimeWaitReused.Add(1)
			// Fall through to normal SYN handling.
		} else {
			// Old duplicate SYN against TIME_WAIT: re-announce the final
			// state (RFC 793); a confused legitimate peer RSTs, a stale
			// duplicate is ignored.
			s.sendCtl(key, protocol.FlagACK, tw.FinalSeq, tw.FinalAck, false)
			return
		}
	}
	t := &s.hs
	t.mu.Lock()
	if h, dup := t.half[key]; dup {
		if !h.passive {
			// The key matches one of our in-flight active opens. Whether
			// this is a simultaneous open or a spoofed SYN, it must not
			// perturb the handshake or release the port reservation; the
			// SYN-ACK retransmission sweep drives it to resolution.
			t.mu.Unlock()
			return
		}
		// SYN retransmission: re-send our SYNACK.
		iss, peer := h.iss, h.peerISS
		t.mu.Unlock()
		s.sendCtl(key, protocol.FlagSYN|protocol.FlagACK, iss, peer+1, true)
		return
	}
	l := t.listeners[key.LocalPort]
	if l == nil {
		t.mu.Unlock()
		s.ctr.Rejected.Add(1)
		s.sendCtl(key, protocol.FlagRST|protocol.FlagACK, 0, pkt.Seq+1, false)
		return
	}
	now := s.eng.NowNanos()
	if s.cookiesEngaged(l, now) {
		t.mu.Unlock()
		// Stateless handshake: no half-open entry, no backlog slot — the
		// completing ACK proves the initiator is reachable and carries
		// everything needed to reconstruct the connection.
		s.record(key, telemetry.FESynRx, pkt.Seq, 0, 0)
		s.sendCookieSynAck(key, pkt)
		return
	}
	// Admission: the listener's own backlog bound, then the half-open pool
	// shared across every port (Acquire charges the slot; dropHalf
	// releases it). Either one full sheds the SYN silently and counts it.
	// No RST — this is overload, not refusal; the peer's handshake
	// retransmission retries when (if) there is room.
	if l.halfCount+int(l.Pending.Load()) >= l.Backlog ||
		(s.cfg.Gov != nil && s.cfg.Gov.Acquire(resource.PoolHalfOpen, 1) != nil) {
		s.ctr.SynBacklogDrops.Add(1)
		t.mu.Unlock()
		return
	}
	h := &halfOpen{
		key: key, iss: t.rng.Uint32(), ctxID: l.CtxID, opaque: l.Opaque,
		passive: true, peerISS: pkt.Seq,
		rexmit: startRetry(now, s.cfg.HandshakeRTO), lst: l, born: now,
	}
	t.addHalf(h)
	l.halfCount++
	t.mu.Unlock()
	s.record(key, telemetry.FESynRx, pkt.Seq, 0, 0)
	s.sendHandshake(h)
}

// sendHandshake (re)sends h's own handshake segment — the SYN-ACK of a
// passive open, the SYN of an active one. Everything it reads is fixed
// at the entry's creation, so no table lock is needed. The segment is
// recorded before it leaves: the fabric may deliver the answer, and the
// event loop record it, before the send returns.
func (s *Slowpath) sendHandshake(h *halfOpen) {
	if h.passive {
		s.record(h.key, telemetry.FESynAckTx, h.iss, h.peerISS+1, 0)
		s.sendCtl(h.key, protocol.FlagSYN|protocol.FlagACK, h.iss, h.peerISS+1, true)
	} else {
		s.record(h.key, telemetry.FESynTx, h.iss, 0, 0)
		s.sendCtl(h.key, protocol.FlagSYN, h.iss, 0, true)
	}
}

// handleSynAck: completion of our active open.
func (s *Slowpath) handleSynAck(key protocol.FlowKey, pkt *protocol.Packet) {
	s.hs.mu.Lock()
	h := s.hs.half[key]
	if h == nil || h.passive {
		s.hs.mu.Unlock()
		// Our final handshake ACK may have been lost and the peer
		// retransmitted its SYN-ACK: re-ack from the installed flow so
		// the passive side can establish.
		if f := s.eng.Table.Lookup(key); f != nil {
			f.Lock()
			seq, ack := f.SeqNo, f.AckNo
			f.Unlock()
			s.sendCtlFlow(f, protocol.FlagACK, seq, ack, nil)
		}
		return // stale
	}
	if pkt.Ack != h.iss+1 {
		s.hs.mu.Unlock()
		return // not for our SYN
	}
	s.dropHalf(h)
	s.hs.mu.Unlock()

	s.record(key, telemetry.FESynAckRx, pkt.Seq, pkt.Ack, 0)
	if err := s.admitFlow(h.ctxID); err != nil {
		// Flow/payload pools (or the app's quota) are exhausted at the
		// moment of establishment: refuse with RST and deliver explicit
		// backpressure to the dialer instead of a silent hang.
		s.sendCtl(key, protocol.FlagRST|protocol.FlagACK, h.iss+1, pkt.Seq+1, false)
		s.notify(h.ctxID, fastpath.Event{Kind: fastpath.EvConnected, Opaque: h.opaque, Bytes: fastpath.ConnBackpressure})
		return
	}
	s.observeHandshake(h)
	f := s.installFlow(key, h, pkt.Seq, pkt.Window)
	// Final handshake ACK.
	s.sendCtlFlow(f, protocol.FlagACK, h.iss+1, pkt.Seq+1, nil)
	s.notify(h.ctxID, fastpath.Event{Kind: fastpath.EvConnected, Opaque: h.opaque, Flow: f})
	s.ctr.Established.Add(1)
}

// handlePlain: a data/ack packet the fast path didn't know. Three cases:
// the ACK completing a stateful passive handshake, the ACK completing a
// stateless (SYN-cookie) handshake, or a packet that raced flow
// installation (re-inject it).
func (s *Slowpath) handlePlain(key protocol.FlowKey, pkt *protocol.Packet) {
	t := &s.hs
	t.mu.Lock()
	if h := t.half[key]; h != nil && h.passive && pkt.Flags.Has(protocol.FlagACK) && pkt.Ack == h.iss+1 {
		s.dropHalf(h)
		t.mu.Unlock()
		s.completePassive(h, pkt)
		return
	}
	// No half-open entry. If the port is listening with cookies engaged
	// and the flow is not already installed, this may be the ACK of a
	// stateless handshake: validate the cookie carried in the ack
	// number and reconstruct the connection the slow path never stored.
	if l := t.listeners[key.LocalPort]; l != nil &&
		pkt.Flags.Has(protocol.FlagACK) && s.cookiesActive(l, s.eng.NowNanos()) &&
		s.eng.Table.Lookup(key) == nil {
		h, ok := s.cookieHalf(key, pkt, l)
		if !ok {
			s.ctr.SynCookiesRejected.Add(1)
			t.mu.Unlock()
			s.record(key, telemetry.FESynCookieBad, pkt.Seq, pkt.Ack, 0)
			return
		}
		if int(l.Pending.Load()) >= l.Backlog {
			// The cookie is genuine but the accept queue is full. The
			// stateless handshake already told the peer "established", so
			// shedding must fail closed: RST, not a silent wedge.
			s.ctr.AcceptQueueDrops.Add(1)
			t.mu.Unlock()
			s.sendCtl(key, protocol.FlagRST|protocol.FlagACK, pkt.Ack, pkt.Seq, false)
			return
		}
		t.mu.Unlock()
		s.ctr.SynCookiesValidated.Add(1)
		s.record(key, telemetry.FESynCookieOK, pkt.Seq, pkt.Ack, 0)
		s.completePassive(h, pkt)
		return
	}
	t.mu.Unlock()

	if s.eng.Table.Lookup(key) != nil {
		// Raced installation: back to the fast path.
		s.ctr.Reinjected.Add(1)
		s.eng.Input(pkt)
		return
	}
	if tw := s.eng.TimeWait.Lookup(key); tw != nil {
		// A stray segment for a quarantined tuple — an old duplicate or
		// a retransmission that raced our final ACK: re-announce the
		// connection's final state (RFC 793 TIME-WAIT processing).
		s.sendCtl(key, protocol.FlagACK, tw.FinalSeq, tw.FinalAck, false)
		return
	}
	s.resetStray(key, pkt)
}

// resetStray answers a segment that matches no connection state at all.
// A peer can legitimately still hold state for this tuple — we may have
// declared it dead during a partition and reclaimed everything, or our
// late segments re-created, from its SYN cookie, a connection it had
// already reset — and if we stay silent it will retransmit (its FIN too)
// into the void until its own retry budget runs dry. Answer with a reset (RFC 793 reset
// generation for a CLOSED tuple) so it tears down immediately. The send
// shares the challenge-ACK budget: stray segments are attacker-writable,
// so unmetered replies would be a reflection amplifier. Peers in
// TIME_WAIT are safe from these resets — handleRst never consults the
// TIME_WAIT table (RFC 1337).
func (s *Slowpath) resetStray(key protocol.FlowKey, pkt *protocol.Packet) {
	if s.eng.Challenge == nil || !s.eng.Challenge.Allow(s.eng.NowNanos()) {
		return
	}
	s.ctr.StrayRsts.Add(1)
	if pkt.Flags.Has(protocol.FlagACK) {
		// The peer told us what it expects next; a RST at exactly that
		// sequence number is acceptable everywhere in its window.
		s.sendCtl(key, protocol.FlagRST, pkt.Ack, 0, false)
	} else {
		s.sendCtl(key, protocol.FlagRST|protocol.FlagACK, 0, pkt.Seq+uint32(pkt.DataLen()), false)
	}
	s.record(key, telemetry.FERstTx, pkt.Seq, pkt.Ack, 0)
}

// completePassive finishes a passive handshake whose completing ACK
// just arrived (stateful or cookie-reconstructed): install the flow,
// deliver EvAccepted, and re-inject any data the ACK carried.
func (s *Slowpath) completePassive(h *halfOpen, pkt *protocol.Packet) {
	if err := s.admitFlow(h.ctxID); err != nil {
		// Fail closed: the completing ACK means the peer already
		// believes the connection is established, so a silent shed would
		// wedge it mid-handshake — answer with RST instead.
		s.sendCtl(h.key, protocol.FlagRST|protocol.FlagACK, h.iss+1, h.peerISS+1, false)
		return
	}
	s.ctr.Established.Add(1)
	s.ctr.Accepted.Add(1)
	s.observeHandshake(h)
	f := s.installFlow(h.key, h, h.peerISS, pkt.Window)
	// Charge before posting: an Accept already waiting dispatches the
	// event and un-charges before PostEvent returns. The matching
	// release happens where pending drains — libtas Accept, or the
	// reaper tearing a listener down.
	if h.lst != nil {
		h.lst.Pending.Add(1)
		s.charge(resource.PoolAccept, 1)
	}
	if !s.notify(h.ctxID, fastpath.Event{Kind: fastpath.EvAccepted, Opaque: h.opaque, Flow: f}) {
		// The accept event cannot be delivered (context gone, dead,
		// or its event queue is full): tear the nascent connection
		// down instead of orphaning installed flow state the
		// application will never learn about.
		if h.lst != nil {
			h.lst.Pending.Add(-1)
			s.charge(resource.PoolAccept, -1)
		}
		s.ctr.AcceptQueueDrops.Add(1)
		if seq, ack, first := markAborted(f); first {
			s.sendRst(f, seq, ack)
			recordFlow(f, telemetry.FEAborted, seq, ack, 0, 0)
		}
		s.removeFlow(f)
		return
	}
	// The completing ACK may carry data (or more may have raced):
	// re-inject so the fast path processes it against the new flow.
	if pkt.DataLen() > 0 {
		s.eng.Input(pkt)
	}
}

// observeHandshake records a completed handshake's SYN-to-established
// latency (µs). Cookie-reconstructed half-opens carry no start time
// (born is zero) — the stateless path deliberately keeps no state to
// timestamp — and are skipped.
func (s *Slowpath) observeHandshake(h *halfOpen) {
	if s.telem == nil || h.born == 0 {
		return
	}
	// The engine clock is monotonic, so the latency is never negative.
	s.telem.Handshake.Observe(uint64((s.eng.NowNanos()-h.born)/1000), int(h.key.LocalPort))
}

// admitFlow is the authoritative admission check for establishing a
// connection: one flow slot plus both payload buffers, charged against
// the app's quota and the global pools together. The charge point is
// flow installation — not Connect — so charges stay 1:1 with entries in
// the shared flow table, which is exactly the state that survives a
// slow-path crash and warm restart.
func (s *Slowpath) admitFlow(ctxID uint16) error {
	g := s.cfg.Gov
	if g == nil {
		return nil
	}
	if err := g.AcquireFlow(uint32(ctxID), int64(s.cfg.RxBufSize+s.cfg.TxBufSize)); err != nil {
		s.ctr.GovFlowDenied.Add(1)
		return err
	}
	return nil
}

// charge adjusts a governor pool with no admission check: the pools
// accounted for pressure only (FIN-retransmission timers, accept
// backlog), and — negative — the return of slots Acquire admitted.
func (s *Slowpath) charge(p resource.Pool, n int64) {
	if g := s.cfg.Gov; g != nil {
		g.Charge(p, n)
	}
}

// notify posts a slow-path event to an application context. Slow-path
// notifications ride the context's core-0 event ring, which is
// multi-producer for exactly this reason. It reports false when the
// context is gone or dead, or the ring is full.
func (s *Slowpath) notify(ctxID uint16, ev fastpath.Event) bool {
	ctx := s.eng.ContextByID(ctxID)
	return ctx != nil && ctx.PostEvent(0, ev)
}

// installFlow creates fast-path state for an established connection:
// the Table 3 record with its rate bucket, buffers that take their
// storage on first write, and a congestion controller. It allocates no
// payload memory and costs the same however many flows are installed.
func (s *Slowpath) installFlow(key protocol.FlowKey, h *halfOpen, peerISS uint32, peerWindow uint16) *flowstate.Flow {
	f := &flowstate.Flow{
		Opaque:    h.opaque,
		Context:   h.ctxID,
		Charged:   h.ctxID, // admitFlow's charge
		LocalIP:   key.LocalIP,
		LocalPort: key.LocalPort,
		PeerIP:    key.RemoteIP,
		PeerPort:  key.RemotePort,
		PeerMAC:   protocol.MACForIPv4(key.RemoteIP),
		SeqNo:     h.iss + 1,
		AckNo:     peerISS + 1,
		Window:    peerWindow,
		MSSCap:    h.mss, // nonzero only on cookie reconstructions
		RxBuf:     shmring.NewPayloadBuffer(s.cfg.RxBufSize),
		TxBuf:     shmring.NewPayloadBuffer(s.cfg.TxBufSize),
	}
	ctrl := s.cfg.NewController()
	f.RateBucket.SetRate(ctrl.Rate())
	if s.telem != nil {
		// Adopt the handshake-phase ring (keyed by the same 4-tuple) so
		// the flow's trace runs SYN through reap.
		f.Rec = s.telem.Recorder.Ring(key.String())
		f.Rec.Record(telemetry.FEEstablished, f.SeqNo, f.AckNo, 0, 0)
	}
	// Stamp activity at birth so the idle-reclaim rung never sees a
	// fresh flow with a zero clock and takes it as ancient.
	now := s.eng.NowNanos()
	f.Touch(now)
	// Control entry before table entry, and removal in the opposite
	// order: a flow the table can return always has one.
	s.mu.Lock()
	s.adoptFlow(f, ctrl, f.SeqNo, now)
	s.mu.Unlock()
	s.eng.Table.Insert(f)
	return f
}

// handleFin: remote teardown. Acknowledge the FIN, notify the
// application, and drive the close-side state machine: a peer FIN
// before ours marks us the passive closer (straight to CLOSED after
// our own FIN completes); a peer FIN after our acknowledged FIN ends
// FIN_WAIT_2 and enters the TIME_WAIT quarantine.
func (s *Slowpath) handleFin(key protocol.FlowKey, pkt *protocol.Packet) {
	f := s.eng.Table.Lookup(key)
	if f == nil {
		if tw := s.eng.TimeWait.Lookup(key); tw != nil {
			// Retransmitted peer FIN against TIME_WAIT: our final ACK was
			// lost. Re-ack and restart the 2MSL clock (RFC 793).
			s.sendCtl(key, protocol.FlagACK, tw.FinalSeq, tw.FinalAck, false)
			s.eng.TimeWait.Extend(key, s.eng.NowNanos()+s.cfg.TimeWaitDuration.Nanoseconds())
		} else {
			s.resetStray(key, pkt)
		}
		return
	}
	f.Lock()
	if pkt.DataLen() > 0 || pkt.Seq != f.AckNo {
		// FIN with in-flight data gaps: wait for retransmission of the
		// missing data; ack what we have.
		seq, ack := f.SeqNo, f.AckNo
		f.Unlock()
		s.sendCtlFlow(f, protocol.FlagACK, seq, ack, nil)
		return
	}
	first := !f.FinReceived
	f.FinReceived = true
	if first && !f.FinSent {
		// The peer closed first: we are the passive closer, and after
		// our own FIN is acknowledged the flow goes straight to CLOSED —
		// TIME_WAIT is the active closer's burden (RFC 793).
		f.PeerClosedFirst = true
	}
	if f.FinSent && pkt.Flags.Has(protocol.FlagACK) && pkt.Ack == f.SeqNo+1 {
		// The FIN segment itself acknowledges our FIN (it bypassed the
		// fast path, so ack processing happens here): simultaneous-close
		// and FIN_WAIT_2 exits must not wait for a later pure ACK.
		f.FinAcked = true
	}
	f.AckNo++ // FIN consumes one sequence number
	seq, ack := f.SeqNo, f.AckNo
	done := f.FinSent && f.FinAcked && !f.PeerClosedFirst
	ctxID, opaque := f.Context, f.Opaque
	f.Unlock()

	s.sendCtlFlow(f, protocol.FlagACK, seq, ack, nil)
	if first {
		recordFlow(f, telemetry.FEFinRx, pkt.Seq, ack, 0, 0)
		s.notify(ctxID, fastpath.Event{Kind: fastpath.EvClosed, Opaque: opaque, Flow: f})
	}
	if done {
		// Both directions are closed and we closed first (FIN_WAIT_2 →
		// TIME_WAIT, or the tail of a simultaneous close): quarantine the
		// tuple and reclaim the flow now. The passive-close and
		// not-yet-acked cases stay with the tick (closeTick).
		s.enterTimeWait(f)
	}
}

// handleRst tears the flow down — but only after RFC 5961 sequence
// validation, because a RST is the cheapest blind attack there is: one
// spoofed packet that lands kills a connection.
//
// Against half-open state, only the RST a legitimate peer could send is
// honored: for a passive half-open, the peer's sequence must be exactly
// the one our SYN-ACK acknowledged; for an active open, the RST must
// carry an ACK of exactly our ISS+1 (RFC 793's refusal form). Against
// an established flow, only an RST at exactly the next expected
// sequence (RCV.NXT) tears down; one merely inside the receive window
// draws a rate-limited challenge ACK (a true peer reset answers that
// with an exact-sequence RST), and anything else is dropped. All
// rejected RSTs count in BlindRstDrops.
func (s *Slowpath) handleRst(key protocol.FlowKey, pkt *protocol.Packet) {
	s.hs.mu.Lock()
	if h := s.hs.half[key]; h != nil {
		valid := false
		if h.passive {
			valid = pkt.Seq == h.peerISS+1
		} else {
			valid = pkt.Flags.Has(protocol.FlagACK) && pkt.Ack == h.iss+1
		}
		if !valid {
			s.ctr.BlindRstDrops.Add(1)
			s.hs.mu.Unlock()
			return
		}
		s.dropHalf(h)
		s.hs.mu.Unlock()
		s.ctr.Rejected.Add(1)
		if !h.passive {
			s.notify(h.ctxID, fastpath.Event{Kind: fastpath.EvConnected, Opaque: h.opaque, Bytes: fastpath.ConnRefused})
		}
		return
	}
	s.hs.mu.Unlock()
	f := s.eng.Table.Lookup(key)
	if f == nil {
		// Deliberately no TIME_WAIT lookup here: an RST must not cut a
		// quarantine short (RFC 1337, TIME-WAIT assassination) — the
		// entry ages out on its own clock.
		return
	}
	f.Lock()
	expect := f.AckNo
	wnd := uint32(f.RxBuf.Free())
	f.Unlock()
	if pkt.Seq != expect {
		s.ctr.BlindRstDrops.Add(1)
		if wnd == 0 {
			wnd = 1
		}
		if tcp.SeqInWindow(pkt.Seq, expect, wnd) {
			s.challengeAck(f)
		}
		return
	}
	if _, _, first := markAborted(f); first {
		recordFlow(f, telemetry.FERstRx, pkt.Seq, 0, 0, 0)
		recordFlow(f, telemetry.FEAborted, pkt.Seq, 0, 0, 0)
		s.notifyAborted(f, 0)
	}
	s.removeFlow(f)
}

// markAborted flags f aborted and returns its sequence state and whether
// this call was the one that flagged it: several teardown paths can race
// to a flow, and only the first resets the peer and tells the app.
func markAborted(f *flowstate.Flow) (seq, ack uint32, first bool) {
	f.Lock()
	first = !f.Aborted
	f.Aborted = true
	seq, ack = f.SeqNo, f.AckNo
	f.Unlock()
	return seq, ack, first
}

// sendRst resets the peer, best effort, at f's sequence state.
func (s *Slowpath) sendRst(f *flowstate.Flow, seq, ack uint32) {
	s.sendCtlFlow(f, protocol.FlagRST|protocol.FlagACK, seq, ack, nil)
	recordFlow(f, telemetry.FERstTx, seq, ack, 0, 0)
}

// abortFlow tears a flow down after a retransmission budget is
// exhausted (dead peer, persistent partition): best-effort RST to the
// peer, fast-path flow state removed, EvAborted to the application.
// cause rides in the event (fastpath.AbortPeerDead when liveness probing
// — persist or keepalive — declared the peer silently dead, else 0).
func (s *Slowpath) abortFlow(f *flowstate.Flow, cause uint32) {
	if cause == fastpath.AbortPeerDead {
		// Before the abort flag: whoever reads that finds the refinement.
		f.Lock()
		f.PeerDead = true
		f.Unlock()
	}
	seq, ack, first := markAborted(f)
	if !first {
		return
	}
	// Counted before the RST is sent, like every counter here whose event
	// shows on the wire: an observer that has seen the segment must find
	// it in the counter.
	s.ctr.Aborts.Add(1)
	s.sendRst(f, seq, ack)
	recordFlow(f, telemetry.FEAborted, seq, ack, 0, uint64(cause))
	if cause == fastpath.AbortPeerDead {
		recordFlow(f, telemetry.FEPeerDead, seq, ack, 0, 0)
	}
	s.removeFlow(f)
	s.notifyAborted(f, cause)
}

// notifyAborted tells the application that owns f that the flow is gone.
func (s *Slowpath) notifyAborted(f *flowstate.Flow, cause uint32) {
	f.Lock()
	ctxID, opaque := f.Context, f.Opaque
	f.Unlock()
	s.notify(ctxID, fastpath.Event{Kind: fastpath.EvAborted, Opaque: opaque, Bytes: cause, Flow: f})
}

// closeTick supervises a close the application asked for, from the
// flow's own visit: the FIN goes out once the transmit buffer drains (or
// closeDrainLimit after Close), is retransmitted with backoff until acked
// (an exhausted budget aborts, so neither side hangs half-closed), and the
// close finishes once the peer's FIN is in — removal for a passive closer,
// TIME_WAIT for an active one — or after FinWait2Timeout. Caller holds mu.
func (s *Slowpath) closeTick(e *ccEntry, now int64, fs *flowSample) {
	f := e.flow
	switch {
	case fs.aborted:
	case !fs.finSent:
		if fs.pending <= 0 && fs.outstanding == 0 || now-e.closeAt >= closeDrainLimit.Nanoseconds() {
			s.sendFin(e, now)
		}
	case fs.finAcked && fs.finRecv:
		s.later(func() { s.finishClose(f) })
	case fs.finAcked && !e.fw2:
		// FIN acknowledged, peer still open: FIN_WAIT_2, bounded. The
		// timer keeps its one pool charge across the transition.
		e.fw2 = true
		e.fin.deadline = now + s.cfg.FinWait2Timeout.Nanoseconds()
	case fs.finAcked:
		if e.fin.due(now) {
			// The peer never closed its side: quiet local teardown, no RST
			// (it may be alive, just uninterested in closing; only its next
			// segment for the gone flow draws one).
			s.ctr.FinWait2Timeouts.Add(1)
			s.later(func() {
				seq, ack, _ := markAborted(f)
				recordFlow(f, telemetry.FEAborted, seq, ack, 0, 0)
				s.removeFlow(f)
			})
		}
	case !e.fin.due(now): // FIN in flight, timer running
	case e.fin.attempts >= s.cfg.MaxRetransmits:
		s.doom(f, 0)
	default:
		e.fin.backoff(now, 0)
		s.ctr.FinRexmits.Add(1)
		recordFlow(f, telemetry.FERexmit, e.finSeq, fs.ack, 0, 0)
		s.sendCtlFlow(f, protocol.FlagFIN|protocol.FlagACK, e.finSeq, fs.ack, nil)
	}
}

// finishClose ends a flow both directions of which are closed: the
// passive closer (LAST_ACK → CLOSED) is done outright, the active closer
// pays the TIME_WAIT quarantine (RFC 793).
func (s *Slowpath) finishClose(f *flowstate.Flow) {
	f.Lock()
	peerFirst := f.PeerClosedFirst
	f.Unlock()
	if peerFirst {
		s.removeFlow(f)
	} else {
		s.enterTimeWait(f)
	}
}

// removeFlow is the one end of every flow's life: out of the flow table,
// finite resources reclaimed, control entry dropped (with it a close's
// timer-pool charge; the FIN_WAIT_2 gauge counts entries, so it follows),
// flight ring retired. What differs between the ways a flow can end —
// whether the peer gets a RST, which counter, which event the application
// sees — stays with the caller.
func (s *Slowpath) removeFlow(f *flowstate.Flow) {
	// The table entry, payload buffers and governor charges go back
	// exactly once, however many teardown paths race here: Retire is the
	// latch, taken before the table forgets the flow so a TX request the
	// fast path no longer finds installed reads as stale, not malformed.
	// It is taken under the flow lock, where ResizeBuffers checks it, so
	// the sizes released here are the last the buffers will have. The
	// table forgets the flow last, so whoever finds it gone finds its
	// charges returned. Reclaim only fences producer writes; the
	// application side may still drain already received bytes.
	f.Lock()
	first := f.Retire()
	var payload int64
	if first {
		for _, b := range [...]*shmring.PayloadBuffer{f.RxBuf, f.TxBuf} {
			if b != nil {
				payload += int64(b.Size())
				b.Reclaim()
			}
		}
	}
	f.Unlock()
	if first {
		if g := s.cfg.Gov; g != nil {
			g.ReleaseFlow(uint32(f.Charged), payload)
		}
		s.eng.Table.Remove(f.Key())
	}
	s.mu.Lock()
	s.dropEntry(f)
	s.mu.Unlock()
	// The flight ring moves to the recorder's retired list, for
	// post-mortem inspection.
	if s.telem != nil && f.Rec != nil {
		s.telem.Recorder.Retire(f.Rec.Key())
	}
}

// Core-scaling thresholds (§3.4), in cores of aggregate idle capacity.
const (
	addIdle    = 0.2
	removeIdle = 1.25
)

// scaleLoop adjusts the number of active fast-path cores to the load
// (§3.4): >removeIdle aggregate idle cores -> remove one; <addIdle ->
// add one. Failed cores contribute no idle capacity — a dead goroutine
// reports 0 utilization, and counting that as a spare core would make
// the monitor scale down right after a failure, shrinking the surviving
// set when it needs every core it has. The SetActiveCores rewrite
// itself never steers to failed cores (RSS exclusion mask).
func (s *Slowpath) scaleLoop() {
	active := s.eng.ActiveCores()
	var idle float64
	for i := 0; i < active; i++ {
		if s.eng.CoreFailed(i) {
			continue
		}
		idle += 1 - s.eng.Utilization(i)
	}
	switch {
	case idle > removeIdle && active > 1:
		s.eng.SetActiveCores(active - 1)
	case idle < addIdle && active < s.eng.MaxCores():
		s.eng.SetActiveCores(active + 1)
	}
}
