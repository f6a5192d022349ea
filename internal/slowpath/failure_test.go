package slowpath

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
)

// waitCtlEvent polls for the next connection-control event, skipping
// EvData/EvTxAcked wakeups.
func waitCtlEvent(t *testing.T, ctx *fastpath.Context, timeout time.Duration) fastpath.Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var evs [16]fastpath.Event
	for time.Now().Before(deadline) {
		n := ctx.PollEvents(evs[:])
		for i := 0; i < n; i++ {
			if evs[i].Kind != fastpath.EvData && evs[i].Kind != fastpath.EvTxAcked {
				return evs[i]
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("no control event before timeout")
	return fastpath.Event{}
}

// fastCfg returns a config with aggressive failure-handling timers so
// the tests bound total runtime.
func fastCfg() Config {
	return Config{
		HandshakeRTO:     10 * time.Millisecond,
		HandshakeRetries: 2,
		MaxRetransmits:   2,
	}
}

// TestConnectTimesOutAcrossPartition: an active open toward an
// unreachable peer must fail with ConnTimedOut after the handshake
// retry budget, in bounded time, leaving no half-open state behind.
func TestConnectTimesOutAcrossPartition(t *testing.T) {
	eng, sp, nic := newWireRig(fastCfg())
	ipB := protocol.MakeIPv4(10, 0, 0, 2)
	lport, err := sp.Connect(ipB, 80, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The clock starts where Connect started the handshake's timer.
	h := sp.lookupHalf(protocol.FlowKey{LocalIP: eng.Config().LocalIP, LocalPort: lport, RemoteIP: ipB, RemotePort: 80})
	clk := &tickClock{sp: sp, now: h.rexmit.deadline - sp.cfg.HandshakeRTO.Nanoseconds()}
	start := clk.now
	timedOut := func() bool { return sp.ctr.HandshakeTimeouts.Load() > 0 }
	if !clk.run(time.Second, timedOut) {
		t.Fatal("the handshake never gave up")
	}
	// Budget: 10 + 20 + 40 ms of backoff, and not a tick more.
	if el := time.Duration(clk.now - start); el != 70*time.Millisecond {
		t.Fatalf("timed out after %v, want 70ms", el)
	}
	if ev := nextEvent(t, eng); ev.Kind != fastpath.EvConnected || ev.Bytes != fastpath.ConnTimedOut {
		t.Fatalf("event = %+v, want EvConnected/ConnTimedOut", ev)
	}
	syns := nic.take(func(p *protocol.Packet) bool { return p.Flags == protocol.FlagSYN })
	if len(syns) != 3 {
		t.Fatalf("%d SYNs sent, want the first and 2 retransmissions", len(syns))
	}
	if n := sp.HalfOpenCount(); n != 0 {
		t.Fatalf("half-open entries leaked: %d", n)
	}
}

// TestHandshakeSurvivesTransientPartition: SYNs lost during a short
// partition are retransmitted with backoff and the handshake completes
// once the partition heals.
func TestHandshakeSurvivesTransientPartition(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	cfg := fastCfg()
	cfg.HandshakeRetries = 5
	a := newNode(t, fab, ipA, cfg)
	b := newNode(t, fab, ipB, cfg)
	b.sp.Listen(80, 0, 1)

	fab.Partition(ipA, ipB)
	if _, err := a.sp.Connect(ipB, 80, 0, 5); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "a SYN lost and retransmitted", time.Second, func() bool {
		return a.sp.ctr.HandshakeRexmits.Load() > 0
	})
	fab.Heal(ipA, ipB)

	ev := waitCtlEvent(t, a.ctx, 2*time.Second)
	if ev.Kind != fastpath.EvConnected || ev.Bytes != 0 || ev.Flow == nil {
		t.Fatalf("event = %+v, want established", ev)
	}
	rexmits := a.sp.ctr.HandshakeRexmits.Load()
	if rexmits == 0 {
		t.Fatal("expected SYN retransmissions")
	}
}

// ghostSyn is a SYN to port 80 from a host nobody can answer for.
func ghostSyn(port uint16, seq uint32) *protocol.Packet {
	return &protocol.Packet{
		SrcIP: protocol.MakeIPv4(10, 0, 0, 99), DstIP: protocol.MakeIPv4(10, 0, 0, 1),
		SrcPort: port, DstPort: 80, Flags: protocol.FlagSYN, Seq: seq,
	}
}

// TestRstReapsPassiveHalfOpen: a peer that gives up mid-handshake
// (RST after our SYN-ACK) must not leave a half-open entry behind.
func TestRstReapsPassiveHalfOpen(t *testing.T) {
	_, sp, _ := newWireRig(fastCfg())
	sp.Listen(80, 0, 1)

	syn := ghostSyn(4000, 100)
	sp.handleException(syn)
	if n := sp.HalfOpenCount(); n != 1 {
		t.Fatalf("passive half-open never created (%d entries)", n)
	}
	rst := ghostSyn(4000, 101)
	rst.Flags = protocol.FlagRST
	sp.handleException(rst)
	if n := sp.HalfOpenCount(); n != 0 {
		t.Fatal("half-open entry not reaped by RST")
	}
}

// TestPassiveHalfOpenReapedWithoutFinalAck: if the handshake-completing
// ACK never arrives, the passive entry retransmits its SYN-ACK and is
// eventually reaped — the deadline satellite of the issue.
func TestPassiveHalfOpenReapedWithoutFinalAck(t *testing.T) {
	eng, sp, nic := newWireRig(fastCfg())
	sp.Listen(80, 0, 1)

	syn := ghostSyn(4001, 100)
	sp.handleException(syn)
	h := sp.lookupHalf(syn.RxKey())
	clk := &tickClock{sp: sp, now: h.rexmit.deadline - sp.cfg.HandshakeRTO.Nanoseconds()}
	reaped := func() bool { return sp.HalfOpenCount() == 0 && sp.ctr.HandshakeTimeouts.Load() > 0 }
	if !clk.run(time.Second, reaped) {
		t.Fatalf("half-open not reaped: entries=%d timeouts=%d", sp.HalfOpenCount(), sp.ctr.HandshakeTimeouts.Load())
	}
	synAcks := nic.take(func(p *protocol.Packet) bool { return p.Flags == protocol.FlagSYN|protocol.FlagACK })
	if len(synAcks) != 3 {
		t.Fatalf("%d SYN-ACKs sent, want the first and 2 retransmissions", len(synAcks))
	}
	if eng.Table.Len() != 0 {
		t.Fatal("an unfinished handshake installed a flow")
	}
}

// TestHandshakeRetransmitSchedule pins the handshake's backoff on a
// synthetic clock: with HandshakeRetries 3, an unanswered SYN (active) or
// SYN-ACK (passive) goes out again R, 3R and 7R after the first, and the
// handshake gives up at 15R — an active open posting
// EvConnected/ConnTimedOut — each within one control interval. A
// handshake that completes never fires again.
func TestHandshakeRetransmitSchedule(t *testing.T) {
	const R = 10 * time.Millisecond
	cfg := Config{HandshakeRTO: R, HandshakeRetries: 3}
	peer := protocol.MakeIPv4(10, 0, 0, 99)
	// open starts one handshake and returns its key and its ISS, with the
	// first handshake segment already taken off the wire.
	open := func(t *testing.T, eng *fastpath.Engine, sp *Slowpath, nic *wireNIC, passive bool) *halfOpen {
		key := protocol.FlowKey{LocalIP: eng.Config().LocalIP, RemoteIP: peer, RemotePort: 4000, LocalPort: 80}
		if passive {
			sp.Listen(80, 0, 1)
			sp.handleException(ghostSyn(4000, 100))
		} else {
			lport, err := sp.Connect(peer, 4000, 0, 5)
			if err != nil {
				t.Fatal(err)
			}
			key = protocol.FlowKey{LocalIP: eng.Config().LocalIP, LocalPort: lport, RemoteIP: peer, RemotePort: 4000}
		}
		h := sp.lookupHalf(key)
		if h == nil || len(nic.take(isHandshake)) != 1 {
			t.Fatal("no handshake segment sent")
		}
		return h
	}
	for _, passive := range []bool{false, true} {
		t.Run(fmt.Sprintf("passive=%v", passive), func(t *testing.T) {
			eng, sp, nic := newWireRig(cfg)
			h := open(t, eng, sp, nic, passive)
			clk := &tickClock{sp: sp, now: h.born}
			var fires []time.Duration
			gaveUp := time.Duration(-1)
			for clk.now < h.born+(16*R).Nanoseconds() {
				clk.run(sp.cfg.ControlInterval, nil)
				at := time.Duration(clk.now - h.born)
				for range nic.take(isHandshake) {
					fires = append(fires, at)
				}
				if gaveUp < 0 && sp.ctr.HandshakeTimeouts.Load() > 0 {
					gaveUp = at
				}
			}
			want := []time.Duration{R, 3 * R, 7 * R}
			if len(fires) != len(want) {
				t.Fatalf("retransmissions at %v, want %v", fires, want)
			}
			for i, at := range fires {
				if at < want[i] || at > want[i]+sp.cfg.ControlInterval {
					t.Fatalf("retransmissions at %v, want %v", fires, want)
				}
			}
			if gaveUp < 15*R || gaveUp > 15*R+sp.cfg.ControlInterval {
				t.Fatalf("gave up at %v, want 15R = %v", gaveUp, 15*R)
			}
			if sp.HalfOpenCount() != 0 {
				t.Fatal("an expired handshake left its entry")
			}
			var evs [4]fastpath.Event
			n := eng.ContextByID(0).PollEvents(evs[:])
			if passive && n != 0 {
				t.Fatalf("a passive handshake posted %+v", evs[0])
			}
			if !passive && (n != 1 || evs[0].Kind != fastpath.EvConnected || evs[0].Bytes != fastpath.ConnTimedOut) {
				t.Fatalf("events %+v, want one EvConnected/ConnTimedOut", evs[:n])
			}
		})
		t.Run(fmt.Sprintf("passive=%v/completed", passive), func(t *testing.T) {
			eng, sp, nic := newWireRig(cfg)
			h := open(t, eng, sp, nic, passive)
			if passive {
				sp.handleException(&protocol.Packet{
					SrcIP: peer, DstIP: h.key.LocalIP, SrcPort: 4000, DstPort: 80,
					Flags: protocol.FlagACK, Seq: h.peerISS + 1, Ack: h.iss + 1, Window: 64,
				})
			} else {
				sp.handleException(&protocol.Packet{
					SrcIP: peer, DstIP: h.key.LocalIP, SrcPort: 4000, DstPort: h.key.LocalPort,
					Flags: protocol.FlagSYN | protocol.FlagACK, Seq: 7000, Ack: h.iss + 1, Window: 64,
				})
			}
			if ev := nextEvent(t, eng); ev.Flow == nil {
				t.Fatalf("event = %+v, want an established flow", ev)
			}
			clk := &tickClock{sp: sp, now: h.born}
			clk.run(16*R, nil)
			if n := len(nic.take(isHandshake)); n != 0 || sp.ctr.HandshakeRexmits.Load() != 0 ||
				sp.ctr.HandshakeTimeouts.Load() != 0 {
				t.Fatalf("a completed handshake fired again: %d segments, %d rexmits, %d timeouts",
					n, sp.ctr.HandshakeRexmits.Load(), sp.ctr.HandshakeTimeouts.Load())
			}
		})
	}
}

// isHandshake matches a SYN or SYN-ACK.
func isHandshake(p *protocol.Packet) bool { return p.Flags.Has(protocol.FlagSYN) }

// establish creates a connection between two fresh nodes and returns
// both ends' flows (a dialed, b accepted).
func establish(t *testing.T, a, b *testNode, ipB protocol.IPv4) (fa, fb *flowstate.Flow) {
	t.Helper()
	b.sp.Listen(80, 0, 1)
	if _, err := a.sp.Connect(ipB, 80, 0, 1); err != nil {
		t.Fatal(err)
	}
	evA := waitEvent(t, a.ctx, 2*time.Second)
	if evA.Kind != fastpath.EvConnected || evA.Flow == nil {
		t.Fatalf("client event: %+v", evA)
	}
	evB := waitEvent(t, b.ctx, 2*time.Second)
	if evB.Kind != fastpath.EvAccepted || evB.Flow == nil {
		t.Fatalf("server event: %+v", evB)
	}
	return evA.Flow, evB.Flow
}

// TestEstablishedFlowAbortsAfterRetryBudget: a peer that vanishes
// mid-transfer must be detected by the stall sweep; after
// MaxRetransmits unproductive timeouts the flow aborts — RST attempt,
// EvAborted, state removed.
func TestEstablishedFlowAbortsAfterRetryBudget(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, fastCfg())
	b := newNode(t, fab, ipB, fastCfg())
	f, _ := establish(t, a, b, ipB)

	fab.Partition(ipA, ipB) // peer unreachable from now on

	// Queue data; the fast path sends into the void.
	f.Lock()
	f.TxBuf.Write(make([]byte, 1000))
	f.Unlock()
	a.eng.KickFlow(f)

	ev := waitCtlEvent(t, a.ctx, 5*time.Second)
	if ev.Kind != fastpath.EvAborted {
		t.Fatalf("event = %+v, want EvAborted", ev)
	}
	if a.eng.Table.Len() != 0 {
		t.Fatal("aborted flow still in table")
	}
	aborts := a.sp.ctr.Aborts.Load()
	if aborts == 0 {
		t.Fatal("Aborts not counted")
	}
	f.Lock()
	aborted := f.Aborted
	f.Unlock()
	if !aborted {
		t.Fatal("flow not marked aborted")
	}
}

// peerSegment is a segment from f's peer.
func peerSegment(f *flowstate.Flow, flags protocol.TCPFlags, seq, ack uint32) *protocol.Packet {
	return &protocol.Packet{
		SrcIP: f.PeerIP, DstIP: f.LocalIP, SrcPort: f.PeerPort, DstPort: f.LocalPort,
		Flags: flags, Seq: seq, Ack: ack, Window: 64,
	}
}

// TestFinWithDataGapDefersClose: a FIN arriving ahead of missing data
// (sequence gap) must not close the connection; the receiver re-acks
// and waits for the retransmission to fill the gap first.
func TestFinWithDataGapDefersClose(t *testing.T) {
	eng, sp, nic := newWireRig(fastCfg())
	f := rigFlow(eng, sp, 1, eng.NowNanos())
	ackNo, localSeq := f.AckNo, f.SeqNo

	// FIN 10 bytes ahead of what we have: in-flight data was lost.
	sp.handleException(peerSegment(f, protocol.FlagFIN|protocol.FlagACK, ackNo+10, localSeq))
	if f.FinReceived {
		t.Fatal("FIN with a data gap was accepted early")
	}
	if eng.Table.Len() != 1 {
		t.Fatal("flow removed despite unfilled gap")
	}
	if acks := nic.take(func(p *protocol.Packet) bool { return p.Flags == protocol.FlagACK && p.Ack == ackNo }); len(acks) != 1 {
		t.Fatalf("%d re-ACKs of the gap, want 1", len(acks))
	}

	// The retransmitted in-order FIN closes normally.
	sp.handleException(peerSegment(f, protocol.FlagFIN|protocol.FlagACK, ackNo, localSeq))
	if ev := nextEvent(t, eng); ev.Kind != fastpath.EvClosed {
		t.Fatalf("event = %+v, want EvClosed", ev)
	}
}

// TestLingerReAcksRetransmittedFin: after both sides close, the flow
// lingers until our FIN is acknowledged; a retransmitted peer FIN during
// the linger must be re-acked so the peer can finish its teardown.
func TestLingerReAcksRetransmittedFin(t *testing.T) {
	eng, sp, nic := newWireRig(fastCfg())
	f := rigFlow(eng, sp, 1, eng.NowNanos())
	finSeq, localSeq := f.AckNo, f.SeqNo

	// Local close first: nothing left to send, so the FIN is out when
	// Close returns. Then the peer's FIN arrives.
	sp.Close(f)
	if fins := nic.take(func(p *protocol.Packet) bool { return p.Flags.Has(protocol.FlagFIN) }); len(fins) != 1 || !f.FinSent {
		t.Fatalf("Close sent %d FINs, FinSent %v", len(fins), f.FinSent)
	}
	peerFin := peerSegment(f, protocol.FlagFIN|protocol.FlagACK, finSeq, localSeq)
	sp.handleException(peerFin)
	if ev := nextEvent(t, eng); ev.Kind != fastpath.EvClosed {
		t.Fatalf("event = %+v, want EvClosed", ev)
	}

	// Retransmit the peer's FIN inside the linger window: must be
	// re-acked from the still-present flow state.
	sp.handleException(peerFin)
	if n := len(nic.take(func(p *protocol.Packet) bool { return p.Flags == protocol.FlagACK && p.Ack == finSeq+1 })); n < 2 {
		t.Fatalf("re-acks = %d, want the lingering flow to re-ack the duplicate FIN", n)
	}

	// The peer's ACK of our FIN ends the linger: the fast path marks it,
	// and the next tick quarantines the tuple (we closed first).
	eng.Start()
	defer eng.Stop()
	eng.Input(peerSegment(f, protocol.FlagACK, finSeq+1, localSeq+1))
	waitCond(t, "FIN acked", time.Second, func() bool {
		f.Lock()
		defer f.Unlock()
		return f.FinAcked
	})
	clk := &tickClock{sp: sp, now: eng.NowNanos()}
	if !clk.run(10*time.Millisecond, func() bool { return eng.Table.Len() == 0 }) {
		t.Fatal("flow not removed after linger")
	}
	if sp.TimeWaitCount() != 1 {
		t.Fatal("the active closer's tuple is not in TIME_WAIT")
	}
}

// TestFinRetransmittedUntilAcked: a FIN lost to a partition is
// retransmitted with backoff; once the partition heals the peer acks it
// and the close moves on to FIN_WAIT_2.
func TestFinRetransmittedUntilAcked(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxRetransmits = 10
	eng, sp, nic := newWireRig(cfg)
	f := rigFlow(eng, sp, 1, eng.NowNanos())
	localSeq, peerSeq := f.SeqNo, f.AckNo

	clk := &tickClock{sp: sp, now: eng.NowNanos()}
	sp.Close(f)
	clk.run(60*time.Millisecond, nil) // FIN and its first retransmits are lost
	fins := nic.take(func(p *protocol.Packet) bool { return p.Flags.Has(protocol.FlagFIN) && p.Seq == localSeq })
	rexmits := sp.ctr.FinRexmits.Load()
	if rexmits == 0 || len(fins) != int(rexmits)+1 {
		t.Fatalf("%d FINs on the wire, %d counted retransmissions", len(fins), rexmits)
	}

	eng.Start()
	defer eng.Stop()
	eng.Input(peerSegment(f, protocol.FlagACK, peerSeq, localSeq+1))
	waitCond(t, "FIN acked", time.Second, func() bool {
		f.Lock()
		defer f.Unlock()
		return f.FinAcked
	})
	clk.run(5*time.Millisecond, nil)
	if n := sp.FinWait2Count(); n != 1 {
		t.Fatalf("FinWait2Count = %d after the ACK, want 1", n)
	}
}
