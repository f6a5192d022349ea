package conformance

import (
	"testing"
	"time"

	"repro/internal/libtas"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/slowpath"
)

// establish runs a scripted passive open and returns the accepted
// connection plus the peer.
func establish(t *testing.T, h *Harness, stackPort, peerPort uint16) (*libtas.Conn, *Peer) {
	t.Helper()
	ctx := h.Stack.NewContext()
	ln, err := ctx.Listen(stackPort)
	if err != nil {
		t.Fatal(err)
	}
	p := h.NewPeer(peerPort, stackPort)
	p.Handshake(expectIn)
	conn, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}
	return conn, p
}

// expectFin waits for the stack's FIN and returns its sequence number.
func expectFin(t *testing.T, h *Harness, p *Peer) uint32 {
	t.Helper()
	fin := h.Expect(expectIn, "FIN", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags.Has(protocol.FlagFIN)
	})
	return fin.Seq
}

// gracefulActiveClose drives the stack through a complete active
// close — FIN out, peer acks it, peer FINs, final ACK asserted — and
// returns (finalSeq, finalAck): the TIME_WAIT entry's announced state.
func gracefulActiveClose(t *testing.T, h *Harness, conn *libtas.Conn, p *Peer) (uint32, uint32) {
	t.Helper()
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	finSeq := expectFin(t, h, p)
	p.RcvNxt = finSeq + 1
	p.SendAck() // ack the FIN: stack enters FIN_WAIT_2
	p.Send(protocol.FlagFIN|protocol.FlagACK, p.SndNxt, p.RcvNxt, nil)
	h.Expect(expectIn, "final ACK of peer FIN", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags == protocol.FlagACK && q.Ack == p.SndNxt+1
	})
	h.WaitCond(expectIn, "TIME_WAIT entered", func() bool {
		return h.Slow.TimeWaitCount() == 1 && h.Eng.Table.Len() == 0
	})
	return finSeq + 1, p.SndNxt + 1
}

// TestFinRetransmitBudgetExhaustion: an unacknowledged FIN is
// retransmitted with backoff until the budget runs out, then the flow
// is aborted with an RST so neither side hangs half-closed forever.
func TestFinRetransmitBudgetExhaustion(t *testing.T) {
	h := newHarness(t, slowpath.Config{MaxRetransmits: 2})
	conn, p := establish(t, h, 7020, 40020)

	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	finSeq := expectFin(t, h, p)
	for i := 0; i < 2; i++ { // peer stays silent: same-sequence retransmissions
		h.Expect(expectIn, "FIN retransmission", func(q *protocol.Packet) bool {
			return p.ToPeer(q) && q.Flags.Has(protocol.FlagFIN) && q.Seq == finSeq
		})
	}
	h.Expect(expectIn, "RST after FIN budget", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags.Has(protocol.FlagRST)
	})
	c := h.Slow.Counters()
	if c.FinRexmits < 2 || c.Aborts == 0 {
		t.Fatalf("counters: finRexmits=%d aborts=%d", c.FinRexmits, c.Aborts)
	}
	h.WaitCond(expectIn, "pools drained", func() bool {
		return h.Eng.Table.Len() == 0 &&
			h.Gov.Used(resource.PoolFlows) == 0 &&
			h.Gov.Used(resource.PoolTimers) == 0
	})
}

// TestSimultaneousClose: both ends FIN before seeing the other's. Each
// FIN acks only data (not the other FIN); the stack must ack the
// peer's FIN, accept the late ACK of its own, and — having closed
// first from its own point of view — pay the TIME_WAIT quarantine.
func TestSimultaneousClose(t *testing.T) {
	h := newHarness(t, slowpath.Config{})
	conn, p := establish(t, h, 7021, 40021)

	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	finSeq := expectFin(t, h, p)
	// Crossing FIN: acks data only (finSeq, not finSeq+1).
	p.Send(protocol.FlagFIN|protocol.FlagACK, p.SndNxt, finSeq, nil)
	h.Expect(expectIn, "ACK of crossing FIN", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags == protocol.FlagACK && q.Ack == p.SndNxt+1
	})
	// Late ACK of the stack's FIN completes the simultaneous close.
	p.Send(protocol.FlagACK, p.SndNxt+1, finSeq+1, nil)
	h.WaitCond(expectIn, "simultaneous close reaches TIME_WAIT", func() bool {
		return h.Slow.TimeWaitCount() == 1 && h.Eng.Table.Len() == 0
	})
	if got := h.Gov.Used(resource.PoolTimeWait); got != 1 {
		t.Fatalf("time_wait pool charge = %d, want 1", got)
	}
	if h.Gov.Used(resource.PoolFlows) != 0 || h.Gov.Used(resource.PoolPayload) != 0 {
		t.Fatal("flow resources not reclaimed at TIME_WAIT entry")
	}
}

// TestTimeWaitReAcksOldDuplicates: a quarantined tuple answers both a
// retransmitted FIN (our final ACK was lost) and a stray data-path
// segment with a re-announcement of the final state, and stays
// quarantined (RFC 793 TIME-WAIT processing).
func TestTimeWaitReAcksOldDuplicates(t *testing.T) {
	h := newHarness(t, slowpath.Config{TimeWaitDuration: 5 * time.Second})
	conn, p := establish(t, h, 7022, 40022)
	finalSeq, finalAck := gracefulActiveClose(t, h, conn, p)
	h.Drain()

	// Old duplicate FIN.
	p.Send(protocol.FlagFIN|protocol.FlagACK, p.SndNxt, p.RcvNxt, nil)
	h.Expect(expectIn, "TIME_WAIT re-ACK of duplicate FIN", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags == protocol.FlagACK &&
			q.Seq == finalSeq && q.Ack == finalAck
	})
	// Stray plain segment for the quarantined tuple.
	p.Send(protocol.FlagACK, p.SndNxt+1, p.RcvNxt, nil)
	h.Expect(expectIn, "TIME_WAIT re-ACK of stray segment", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags == protocol.FlagACK &&
			q.Seq == finalSeq && q.Ack == finalAck
	})
	if h.Slow.TimeWaitCount() != 1 {
		t.Fatal("old duplicates must not evict the quarantine entry")
	}
}

// TestTimeWaitRstDoesNotAssassinate: RFC 1337 — an RST against a
// TIME_WAIT tuple must not cut the quarantine short.
func TestTimeWaitRstDoesNotAssassinate(t *testing.T) {
	h := newHarness(t, slowpath.Config{TimeWaitDuration: 5 * time.Second})
	conn, p := establish(t, h, 7023, 40023)
	gracefulActiveClose(t, h, conn, p)

	p.Send(protocol.FlagRST, p.SndNxt+1, 0, nil)
	time.Sleep(50 * time.Millisecond) // give the slow path ticks to (wrongly) act
	if h.Slow.TimeWaitCount() != 1 {
		t.Fatal("RST assassinated the TIME_WAIT entry")
	}
}

// TestTimeWaitSynReuse: a SYN whose ISN is above the quarantined
// incarnation's final receive state reuses the tuple early (RFC 6191);
// one at or below it is an old duplicate and draws only the re-ACK.
func TestTimeWaitSynReuse(t *testing.T) {
	h := newHarness(t, slowpath.Config{TimeWaitDuration: 5 * time.Second})
	ctx := h.Stack.NewContext()
	ln, err := ctx.Listen(7024)
	if err != nil {
		t.Fatal(err)
	}
	p := h.NewPeer(40024, 7024)
	p.Handshake(expectIn)
	conn, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}
	finalSeq, finalAck := gracefulActiveClose(t, h, conn, p)
	h.Drain()

	// Old SYN: ISN below the final receive state → re-ACK, no SYN-ACK.
	p.Inject(&protocol.Packet{
		Flags: protocol.FlagSYN, Seq: p.SndNxt - 10, Window: p.Win,
		MSSOpt: uint16(protocol.DefaultMSS), ECN: protocol.ECNECT0,
	})
	h.Expect(expectIn, "re-ACK of old SYN", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags == protocol.FlagACK &&
			q.Seq == finalSeq && q.Ack == finalAck
	})
	if h.Slow.TimeWaitCount() != 1 {
		t.Fatal("old SYN must not recycle the quarantine")
	}

	// Fresh incarnation: ISN well above the final receive state.
	newISN := p.SndNxt + 100000
	p.Inject(&protocol.Packet{
		Flags: protocol.FlagSYN, Seq: newISN, Window: p.Win,
		MSSOpt: uint16(protocol.DefaultMSS),
		HasTS:  true, TSVal: 2000, ECN: protocol.ECNECT0,
	})
	synack := h.Expect(expectIn, "SYN-ACK for reused tuple", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags.Has(protocol.FlagSYN|protocol.FlagACK) && q.Ack == newISN+1
	})
	if c := h.Slow.Counters(); c.TimeWaitReused != 1 {
		t.Fatalf("TimeWaitReused = %d, want 1", c.TimeWaitReused)
	}
	if h.Slow.TimeWaitCount() != 0 {
		t.Fatal("quarantine entry must be recycled on reuse")
	}
	// Complete the new incarnation and prove it carries data.
	p.ISN, p.StackISN = newISN, synack.Seq
	p.SndNxt, p.RcvNxt = newISN+1, synack.Seq+1
	p.SendAck()
	conn2, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}
	p.SendData([]byte("again"))
	buf := make([]byte, 8)
	n, err := conn2.Recv(buf, expectIn)
	if err != nil || string(buf[:n]) != "again" {
		t.Fatalf("Recv on reused tuple = %q, %v", buf[:n], err)
	}
}

// TestFinWait2Timeout: the peer acks our FIN but never closes its own
// direction; the flow must be reclaimed quietly (no RST — the peer may
// be alive, just uninterested) after FinWait2Timeout.
func TestFinWait2Timeout(t *testing.T) {
	h := newHarness(t, slowpath.Config{FinWait2Timeout: 80 * time.Millisecond})
	conn, p := establish(t, h, 7025, 40025)

	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	finSeq := expectFin(t, h, p)
	p.RcvNxt = finSeq + 1
	p.SendAck()
	h.WaitCond(expectIn, "FIN_WAIT_2 entered", func() bool {
		return h.Slow.FinWait2Count() == 1
	})
	h.Drain()

	h.WaitCond(expectIn, "FIN_WAIT_2 flow reclaimed", func() bool {
		return h.Eng.Table.Len() == 0
	})
	c := h.Slow.Counters()
	if c.FinWait2Timeouts != 1 {
		t.Fatalf("FinWait2Timeouts = %d, want 1", c.FinWait2Timeouts)
	}
	if h.Slow.FinWait2Count() != 0 {
		t.Fatal("FIN_WAIT_2 gauge must return to zero")
	}
	if h.Slow.TimeWaitCount() != 0 {
		t.Fatal("a timed-out FIN_WAIT_2 must not enter TIME_WAIT")
	}
	h.ExpectNone(100*time.Millisecond, "RST on quiet FIN_WAIT_2 reclaim", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags.Has(protocol.FlagRST)
	})
	if h.Gov.Used(resource.PoolFlows) != 0 || h.Gov.Used(resource.PoolTimers) != 0 {
		t.Fatal("FIN_WAIT_2 reclaim leaked pool charges")
	}
}

// TestTimeWaitExpiry: the 2MSL clock releases the quarantine entry and
// its pool charge without any external stimulus.
func TestTimeWaitExpiry(t *testing.T) {
	h := newHarness(t, slowpath.Config{TimeWaitDuration: 60 * time.Millisecond})
	conn, p := establish(t, h, 7026, 40026)
	gracefulActiveClose(t, h, conn, p)
	if h.Gov.Used(resource.PoolTimeWait) != 1 {
		t.Fatalf("time_wait charge = %d, want 1", h.Gov.Used(resource.PoolTimeWait))
	}
	h.WaitCond(expectIn, "quarantine expires", func() bool {
		return h.Slow.TimeWaitCount() == 0 && h.Gov.Used(resource.PoolTimeWait) == 0
	})
}

// TestPeerClosesBackBeforeFinSendReturns: the peer's FIN|ACK is handled
// — tuple quarantined, flow removed — while the closing side is still
// inside the call that transmitted its FIN. The close timer must already
// own the flow by then: one registered afterwards would have the close
// sweep quarantine, and charge, the same tuple a second time.
func TestPeerClosesBackBeforeFinSendReturns(t *testing.T) {
	h := newHarness(t, slowpath.Config{TimeWaitDuration: 60 * time.Millisecond})
	conn, p := establish(t, h, 7027, 40027)
	answered := false
	answer := func(q *protocol.Packet) {
		if answered || !p.ToPeer(q) || !q.Flags.Has(protocol.FlagFIN) {
			return
		}
		answered = true
		p.RcvNxt = q.Seq + 1
		p.Send(protocol.FlagFIN|protocol.FlagACK, p.SndNxt, p.RcvNxt, nil)
		for end := time.Now().Add(expectIn); h.Eng.Table.Len() != 0 && time.Now().Before(end); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	h.nic.onOutput.Store(&answer)
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	h.WaitCond(expectIn, "TIME_WAIT entered", func() bool {
		return h.Slow.TimeWaitCount() == 1 && h.Eng.Table.Len() == 0
	})
	h.WaitCond(expectIn, "quarantine expires", func() bool { return h.Slow.TimeWaitCount() == 0 })
	h.WaitCond(expectIn, "every charge returned", func() bool {
		return h.Gov.Used(resource.PoolTimeWait) == 0 && h.Gov.Used(resource.PoolTimers) == 0 &&
			h.Gov.Used(resource.PoolFlows) == 0
	})
}
