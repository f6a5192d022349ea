package fastpath

import (
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/telemetry"
)

// transmit segments as much pending payload as the peer window and the
// slow-path-configured rate bucket allow (§3.1 common-case send:
// segmentation, header production, timestamps) onto core c's output
// batch, which the caller flushes once it has released the flow lock it
// holds here.
func (e *Engine) transmit(c *core, f *flowstate.Flow) {
	if f.FinSent || f.Aborted {
		return
	}
	for {
		pending := f.TxPending()
		if pending <= 0 {
			return
		}
		if f.Parked {
			// Idle→busy edge: bytes to send mean acks to count, an RTO to
			// arm, and — if the window below is zero — a persist timer to
			// run. Hand the flow back to the control tick.
			e.ActivateFlow(f)
		}
		// Peer receive window (KiB units). A genuine zero window stalls
		// transmission: the slow path's persist timer owns the stall
		// (1-byte probes with backoff), and the probe ACK carrying the
		// reopened window restarts TX. Every flow is installed with the
		// window from the handshake segment, so zero here always means
		// the peer said zero — not "unknown".
		avail := int(f.Window)*WindowUnit - int(f.TxSent)
		if avail <= 0 {
			return // window-limited; the next window update resumes transmission
		}
		n := protocol.DefaultMSS
		if f.MSSCap != 0 && int(f.MSSCap) < n {
			n = int(f.MSSCap)
		}
		if n > pending {
			n = pending
		}
		if n > avail {
			n = avail
		}

		// Rate enforcement: congestion control policy is slow-path
		// business, but the fast path enforces it.
		wire := n + protocol.EthHeaderLen + protocol.IPv4HeaderLen + protocol.TCPHeaderLen + protocol.TSOptLen
		if !f.RateBucket.Take(c.now, wire) {
			// Out of tokens: queue the flow for a pacing retry.
			c.pending = append(c.pending, f)
			if at := f.RateBucket.NextAvailable(c.now, wire); c.pendingAt == 0 || at < c.pendingAt {
				c.pendingAt = at
			}
			return
		}

		flags := protocol.FlagACK
		if n == pending {
			// RFC 9293 push: the segment that empties the unsent bytes
			// ends the burst (the receiver's inline edge, Engine.Input).
			flags |= protocol.FlagPSH
		}
		pkt := e.fillSegment(protocol.NewPacket(), f, flags)
		pkt.HasTS, pkt.TSVal = true, c.nowMicros()
		f.TxBuf.ReadAt(f.TxBuf.Tail()+f.TxSent, pkt.AllocPayload(n))
		f.SeqNo += uint32(n)
		f.TxSent += uint32(n)
		f.TxMax = max(f.TxMax, f.TxSent)
		c.stats.TxPackets.Add(1)
		c.stats.TxBytes.Add(uint64(n))
		if f.Rec != nil {
			f.Rec.Record(telemetry.FESegTx, pkt.Seq, pkt.Ack, uint32(n), 0)
		}
		c.out = append(c.out, pkt)
	}
}

// fillSegment fills in what every segment of flow f carries: addresses,
// the current sequence state and the advertised window. A core passes a
// packet it has just drawn from the pool and owns until its flush hands
// it to the NIC. Caller holds the flow lock.
func (e *Engine) fillSegment(pkt *protocol.Packet, f *flowstate.Flow, flags protocol.TCPFlags) *protocol.Packet {
	pkt.SrcMAC, pkt.DstMAC = e.cfg.LocalMAC, f.PeerMAC
	pkt.SrcIP, pkt.DstIP = f.LocalIP, f.PeerIP
	pkt.SrcPort, pkt.DstPort = f.LocalPort, f.PeerPort
	pkt.Flags = flags
	pkt.Seq, pkt.Ack = f.SeqNo, f.AckNo
	pkt.Window = e.advertisedWindow(f)
	pkt.ECN = protocol.ECNECT0
	return pkt
}
