package fastpath

import (
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// blindAckHorizon is how far below the oldest unacknowledged byte an
// ACK may fall before RFC 5961 validation calls it blind injection
// rather than a delayed duplicate. 16 MiB dwarfs any real in-flight
// window here while leaving an attacker only ~0.4% of the sequence
// space that sails through.
const blindAckHorizon = 1 << 24

// rxGroup is one flow's packets in the receive batch: a chain through
// core.rxNext, in arrival order, from head to tail.
type rxGroup struct {
	f             *flowstate.Flow
	head, tail, n int32
}

// processRxBatch is the receive stage of a step: the common-case RX path
// of §3.1, worked per flow rather than per packet. Connection-control
// packets (SYN/FIN/RST) and packets for unknown flows are exceptions
// forwarded to the slow path; every other packet joins its flow's group,
// and each group gets one table lookup, one RSS check, one flow-lock
// hold, one coalesced ACK, one event of each kind and one transmit (see
// rxFlow). The output is flushed once, after every flow lock is
// released. The core owns the packets on entry (at most stepBatch); on
// return it has released them or handed them on.
func (e *Engine) processRxBatch(c *core, pkts []*protocol.Packet) {
	c.stats.RxPackets.Add(uint64(len(pkts)))
	for i, pkt := range pkts {
		pkt.AssertLive()
		if pkt.Flags&(protocol.FlagSYN|protocol.FlagRST|protocol.FlagFIN) != 0 {
			e.forward(c, pkts, pkt)
			continue
		}
		c.rxNext[i] = -1
		if g := c.openGroup(pkts, pkt); g != nil {
			c.rxNext[g.tail] = int32(i)
			g.tail = int32(i)
			g.n++
			continue
		}
		f := e.Table.Lookup(pkt.RxKey())
		if f == nil {
			e.forward(c, pkts, pkt)
			continue
		}
		c.groups[c.ngroups] = rxGroup{f: f, head: int32(i), tail: int32(i), n: 1}
		c.ngroups++
	}
	e.closeGroups(c, pkts)
	e.flush(c)
}

// forward hands an exception packet to the slow path once every open
// group is worked and its output flushed: a FIN or RST never overtakes
// the data that came before it, and the slow path's answer to it never
// overtakes that data's ACK on the wire.
func (e *Engine) forward(c *core, pkts []*protocol.Packet, pkt *protocol.Packet) {
	e.closeGroups(c, pkts)
	e.flush(c)
	e.toSlowPath(c, pkt)
}

// openGroup returns the open group of pkt's flow, nil if there is none:
// the group whose first packet carries the same addresses. The newest
// group is tried first: a burst is one flow's packets in a row.
func (c *core) openGroup(pkts []*protocol.Packet, pkt *protocol.Packet) *rxGroup {
	for i := c.ngroups - 1; i >= 0; i-- {
		h := pkts[c.groups[i].head]
		if h.SrcPort == pkt.SrcPort && h.DstPort == pkt.DstPort && h.SrcIP == pkt.SrcIP && h.DstIP == pkt.DstIP {
			return &c.groups[i]
		}
	}
	return nil
}

// closeGroups works every open group, in order of first arrival.
func (e *Engine) closeGroups(c *core, pkts []*protocol.Packet) {
	for i := range c.groups[:c.ngroups] {
		e.rxFlow(c, &c.groups[i], pkts)
		c.groups[i].f = nil
	}
	c.ngroups = 0
}

// rxFlow works one flow's packets of the batch under one hold of its
// lock. Each packet's acknowledgement is drawn into one pending ACK:
// in-order segments with the same CE state stretch it, and anything whose
// wire behaviour needs its own ACK — an out-of-order, duplicate or
// buffer-full segment (the peer counts duplicate ACKs), a challenge ACK,
// a change of CE state (DCTCP's echo stays byte-exact) — emits the
// pending one first, in order. Freed transmit space and delivered payload
// are posted as one event each, with one wake.
func (e *Engine) rxFlow(c *core, g *rxGroup, pkts []*protocol.Packet) {
	f := g.f
	// Last-activity stamp for the governor's LRU idle-reclaim rung, from
	// the batch clock: one store, no clock read on the packet path.
	f.Touch(c.now)
	if e.RSS.CoreForPacket(pkts[g.head]) != c.idx {
		c.stats.WrongCore.Add(uint64(g.n)) // arrived during a steering transition
		if c.idx >= e.RSS.Cores() {
			// This core was deactivated after the packets were steered
			// here: §3.4's lazy drain. They are still processed normally
			// below; the counter proves the drain happened.
			c.stats.InactiveDrain.Add(uint64(g.n))
		}
	}

	var ack pendingAck
	var freed, delivered uint32
	live := false // some packet passed validation
	f.Lock()
	for i := g.head; i >= 0; i = c.rxNext[i] {
		pkt := pkts[i]
		// RFC 5961 §5 ACK validation: a blind attacker who cannot see the
		// connection's sequence space guesses ACK values; one landing far
		// below the oldest unacknowledged byte cannot be a delayed ACK from
		// the live window. Drop the whole segment — including any payload,
		// which kills blind data injection — and answer with at most a
		// rate-limited challenge ACK so a legitimate peer that somehow
		// desynchronized can resync. Acks *above* SND.NXT stay accepted
		// (clamped in processAck): the slow path's go-back-N rewind makes
		// them legitimate here.
		if pkt.Flags.Has(protocol.FlagACK) && tcp.SeqDiff(pkt.Ack, f.SeqNo-f.TxSent) < -blindAckHorizon {
			c.stats.BlindAckDrops.Add(1)
			if e.Challenge != nil && e.Challenge.Allow(c.now) {
				ack.emit(e, c)
				e.emitAck(c, e.buildAck(c, f, pkt))
				if f.Rec != nil {
					f.Rec.Record(telemetry.FEChallengeTx, f.SeqNo, f.AckNo, 0, 0)
				}
			}
			pkt.Release()
			continue
		}
		live = true
		if f.Rec != nil && pkt.DataLen() > 0 {
			f.Rec.Record(telemetry.FESegRx, pkt.Seq, pkt.Ack, uint32(pkt.DataLen()), 0)
			if pkt.ECN == protocol.ECNCE {
				f.Rec.Record(telemetry.FEEcnMark, pkt.Seq, pkt.Ack, uint32(pkt.DataLen()), 0)
			}
		}
		if pkt.Flags.Has(protocol.FlagACK) {
			freed += e.processAck(c, f, pkt)
		}
		if pkt.DataLen() > 0 {
			advance := e.processData(c, f, pkt)
			delivered += advance
			ack.draw(e, c, f, pkt, advance > 0)
		}
		// Consumed: payload deposited, header fields echoed. Exception
		// packets are the slow path's and are not released here.
		pkt.Release()
	}
	if live {
		if ctx := e.ContextByID(f.Context); ctx != nil {
			// Inform user space of reliably delivered bytes and new data,
			// with one wake, before the transmit: the application's wake-up
			// overlaps the rest of the step.
			posted := freed > 0 && ctx.post(c.idx, Event{Kind: EvTxAcked, Opaque: f.Opaque, Bytes: freed})
			if delivered > 0 && ctx.post(c.idx, Event{Kind: EvData, Opaque: f.Opaque, Bytes: delivered}) {
				posted = true
			}
			if posted {
				ctx.Wake()
			}
		}
		// An ack may have opened the send window or freed buffer space.
		e.transmit(c, f)
	}
	ack.emit(e, c)
	f.Unlock()
}

// pendingAck is the ACK a flow's packets have drawn and rxFlow has not
// emitted yet. Its sequence state is always that of the last segment it
// covers; its TSEcr echoes the first (RFC 7323 §4.3).
type pendingAck struct {
	pkt     *protocol.Packet
	stretch bool // drawn by an in-order segment: later ones may extend it
}

// draw accounts for the ACK seg calls for. An in-order segment extends a
// pending in-order ACK of the same CE state; anything else emits the
// pending ACK and takes its place.
func (a *pendingAck) draw(e *Engine, c *core, f *flowstate.Flow, seg *protocol.Packet, inOrder bool) {
	if a.pkt != nil {
		if inOrder && a.stretch && a.pkt.Flags.Has(protocol.FlagECE) == (seg.ECN == protocol.ECNCE) {
			a.pkt.Seq, a.pkt.Ack, a.pkt.Window = f.SeqNo, f.AckNo, e.advertisedWindow(f)
			return
		}
		a.emit(e, c)
	}
	a.pkt, a.stretch = e.buildAck(c, f, seg), inOrder
}

// emit queues the pending ACK, if any, on core c's output batch.
func (a *pendingAck) emit(e *Engine, c *core) {
	if a.pkt != nil {
		e.emitAck(c, a.pkt)
		a.pkt = nil
	}
}

// emitAck queues an acknowledgement on core c's output batch.
func (e *Engine) emitAck(c *core, ack *protocol.Packet) {
	c.stats.AcksSent.Add(1)
	c.out = append(c.out, ack)
}

// processAck applies an incoming acknowledgement to flow f and returns
// the transmit-buffer bytes it freed. Caller holds the flow lock.
func (e *Engine) processAck(c *core, f *flowstate.Flow, pkt *protocol.Packet) uint32 {
	una := f.SeqNo - f.TxSent // oldest unacknowledged sequence
	diff := tcp.SeqDiff(pkt.Ack, una)
	switch {
	case diff > 0:
		if f.FinSent && !f.FinAcked && diff == int32(f.TxSent)+1 {
			// The peer acknowledged our FIN's sequence number; the slow
			// path stops retransmitting it.
			f.FinAcked = true
		}
		switch {
		case diff > int32(f.TxMax):
			// Acks beyond anything we sent: tolerate by clamping.
			diff = int32(f.TxSent)
		case diff > int32(f.TxSent):
			// Bytes sent before a go-back-N rewind (a retransmission
			// timeout, fast retransmit or core migration) reached the
			// peer: skip them rather than send them again.
			f.SeqNo += uint32(diff) - f.TxSent
			f.TxSent = uint32(diff)
		}
		// Free acknowledged transmit buffer space (constant time).
		f.TxBuf.Release(int(diff))
		f.TxSent -= uint32(diff)
		f.TxMax -= uint32(diff)
		f.CntAckB += uint32(diff)
		if pkt.Flags.Has(protocol.FlagECE) {
			f.CntEcnB += uint32(diff)
		}
		f.DupAcks = 0
		f.Window = pkt.Window
		if pkt.HasTS && pkt.TSEcr != 0 {
			rtt := c.nowMicros() - pkt.TSEcr
			if int32(rtt) >= 0 {
				if f.RTTEst == 0 {
					f.RTTEst = rtt
					f.RTTVarEst = rtt / 2
				} else {
					// RFC 6298 smoothing: srtt 7/8 old, rttvar 3/4 old
					// plus 1/4 of the new deviation.
					dev := int32(f.RTTEst) - int32(rtt)
					if dev < 0 {
						dev = -dev
					}
					f.RTTVarEst = (3*f.RTTVarEst + uint32(dev)) / 4
					f.RTTEst = (7*f.RTTEst + rtt) / 8
				}
				// Sampled histogram observation (1-in-rttSampleEvery ACKs,
				// like the cycle sampling): two striped atomic adds per
				// sample keeps the observatory under the overhead gate.
				if telem := e.telem; telem != nil {
					c.rttTicks++
					if c.rttTicks&(rttSampleEvery-1) == 0 {
						telem.RTT.Observe(uint64(f.RTTEst), c.idx)
						telem.RTTVar.Observe(uint64(f.RTTVarEst), c.idx)
					}
				}
			}
		}
		return uint32(diff)
	case diff == 0 && pkt.DataLen() == 0:
		if pkt.Window != f.Window {
			// Same ack number but a new window: a window update (the
			// peer's application freed receive-buffer space), not a
			// duplicate. This must apply even with nothing outstanding
			// (TxSent == 0): during a persist stall everything sent has
			// been acked, and the probe ACK reopening the window is the
			// only TX-restart signal — rxFlow's transmit call after the
			// flow's packets is the kick.
			f.Window = pkt.Window
			return 0
		}
		if f.TxSent == 0 {
			return 0
		}
		if pkt.Window == 0 {
			// Zero-window re-ack: the peer dropped a persist probe
			// because its buffer is still full. Flow control, not loss —
			// it must not feed the duplicate-ACK fast-recovery counter.
			return 0
		}
		// Duplicate ACK: count and trigger fast recovery on the third
		// (§3.1 exception optimization 1).
		f.DupAcks++
		if f.DupAcks >= 3 {
			f.DupAcks = 0
			f.CntFrexmits++
			c.stats.Frexmits.Add(1)
			if f.Rec != nil {
				f.Rec.Record(telemetry.FEFastRexmit, f.SeqNo-f.TxSent, pkt.Ack, 0, 0)
			}
			e.resetSender(f)
		}
	}
	return 0
}

// resetSender rewinds the sender as if the unacknowledged segments had
// not been sent (go-back-N); the receiver's out-of-order interval
// absorbs whatever it already has.
func (e *Engine) resetSender(f *flowstate.Flow) {
	f.SeqNo -= f.TxSent
	f.TxSent = 0
}

// processData deposits payload into the flow's receive buffer and
// returns how far it advanced the in-order stream. Zero means the
// segment was a duplicate, out of order or did not fit, and calls for an
// ACK of its own. Caller holds the flow lock.
func (e *Engine) processData(c *core, f *flowstate.Flow, pkt *protocol.Packet) uint32 {
	payload := pkt.Payload
	n := uint32(len(payload))
	seq := pkt.Seq
	rel := tcp.SeqDiff(seq, f.AckNo)

	// Trim data we already have.
	if rel < 0 {
		if tcp.SeqLEQ(seq+n, f.AckNo) {
			return 0 // pure duplicate: re-ack
		}
		skip := uint32(-rel)
		payload = payload[skip:]
		n -= skip
		seq = f.AckNo
		rel = 0
	}

	if rel == 0 {
		// Common case: in-order payload, deposited directly into the
		// user-level receive buffer.
		if int(n) > f.RxBuf.Free() {
			// Buffer full: drop; TCP flow control makes this rare.
			c.stats.BufFullDrop.Add(1)
			return 0
		}
		f.RxBuf.Write(payload)
		f.AckNo += n
		advance := n
		// Merge the out-of-order interval if this fill closed the gap.
		if f.OooLen > 0 && tcp.SeqLEQ(f.OooStart, f.AckNo) {
			end := f.OooStart + f.OooLen
			if tcp.SeqGT(end, f.AckNo) {
				delta := uint32(tcp.SeqDiff(end, f.AckNo))
				f.RxBuf.AdvanceHead(int(delta))
				f.AckNo += delta
				advance += delta
			}
			f.OooLen = 0
			f.OooStart = 0
		}
		return advance
	}

	// Out-of-order arrival: track a single interval (§3.1 exception
	// optimization 2); anything else is dropped and the duplicate ACK
	// asks the sender to retransmit from the gap.
	if uint32(rel)+n <= uint32(f.RxBuf.Free()) {
		pos := f.RxBuf.Head() + uint32(rel)
		switch {
		case f.OooLen == 0:
			f.RxBuf.WriteAt(pos, payload)
			f.OooStart, f.OooLen = seq, n
			c.stats.OooAccepted.Add(1)
		case tcp.SeqLEQ(seq, f.OooStart+f.OooLen) && tcp.SeqGEQ(seq+n, f.OooStart):
			f.RxBuf.WriteAt(pos, payload)
			ns := tcp.SeqMin(f.OooStart, seq)
			ne := tcp.SeqMax(f.OooStart+f.OooLen, seq+n)
			f.OooStart, f.OooLen = ns, uint32(tcp.SeqDiff(ne, ns))
			c.stats.OooAccepted.Add(1)
		default:
			c.stats.OooDropped.Add(1)
		}
	} else {
		c.stats.OooDropped.Add(1)
	}
	return 0
}

// buildAck constructs the acknowledgement for the current flow state,
// echoing ECN marks (for DCTCP) and the peer's timestamp (for RTT
// estimation). Caller holds the flow lock.
func (e *Engine) buildAck(c *core, f *flowstate.Flow, data *protocol.Packet) *protocol.Packet {
	ack := e.fillSegment(protocol.NewPacket(), f, protocol.FlagACK)
	if data.ECN == protocol.ECNCE {
		ack.Flags |= protocol.FlagECE
	}
	if data.HasTS {
		ack.HasTS, ack.TSVal, ack.TSEcr = true, c.nowMicros(), data.TSVal
	}
	return ack
}

// SendWindowUpdate emits a bare ACK advertising the flow's current
// receive window — issued by libtas after the application frees a
// substantial amount of receive-buffer space, so a flow-control-blocked
// peer resumes promptly. It runs on an application or slow-path
// goroutine, not on a core: like the slow path's control segments the
// packet is not the pool's, and the core that consumes it leaves it to
// the garbage collector (one small object per quarter receive buffer).
func (e *Engine) SendWindowUpdate(f *flowstate.Flow) {
	f.Lock()
	pkt := e.fillSegment(new(protocol.Packet), f, protocol.FlagACK)
	pkt.HasTS, pkt.TSVal = true, e.NowMicros()
	f.Unlock()
	e.nic.Output(pkt)
}

// advertisedWindow returns the receive window in WindowUnit units.
func (e *Engine) advertisedWindow(f *flowstate.Flow) uint16 {
	w := f.RxBuf.Free() / WindowUnit
	if w > 0xffff {
		w = 0xffff
	}
	return uint16(w)
}
