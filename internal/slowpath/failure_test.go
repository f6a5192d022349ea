package slowpath

import (
	"sync/atomic"
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
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, fastCfg())
	b := newNode(t, fab, ipB, fastCfg())
	b.sp.Listen(80, 0, 1)
	fab.Partition(ipA, ipB)

	start := time.Now()
	if _, err := a.sp.Connect(ipB, 80, 0, 5); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, a.ctx, 2*time.Second)
	if ev.Kind != fastpath.EvConnected || ev.Bytes != fastpath.ConnTimedOut {
		t.Fatalf("event = %+v, want EvConnected/ConnTimedOut", ev)
	}
	// Budget: 10 + 20 + 40 ms of backoff plus sweep slack.
	if el := time.Since(start); el > 1500*time.Millisecond {
		t.Fatalf("timed out after %v, want bounded", el)
	}
	nHalf, nTO := a.sp.HalfOpenCount(), a.sp.ctr.HandshakeTimeouts.Load()
	if nHalf != 0 {
		t.Fatalf("half-open entries leaked: %d", nHalf)
	}
	if nTO == 0 {
		t.Fatal("HandshakeTimeouts not counted")
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
	time.Sleep(15 * time.Millisecond) // at least the first SYN is lost
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

// TestRstReapsPassiveHalfOpen: a peer that gives up mid-handshake
// (RST after our SYN-ACK) must not leave a half-open entry behind.
func TestRstReapsPassiveHalfOpen(t *testing.T) {
	fab := fabric.New()
	ipB := protocol.MakeIPv4(10, 0, 0, 2)
	b := newNode(t, fab, ipB, fastCfg())
	b.sp.Listen(80, 0, 1)

	// Forge a SYN from a host that is not attached (its SYN-ACK
	// disappears), then a RST from the same 4-tuple.
	ghost := protocol.MakeIPv4(10, 0, 0, 99)
	b.eng.Input(&protocol.Packet{
		SrcIP: ghost, DstIP: ipB, SrcPort: 4000, DstPort: 80,
		Flags: protocol.FlagSYN, Seq: 100,
	})
	deadline := time.Now().Add(time.Second)
	for {
		n := b.sp.HalfOpenCount()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("passive half-open never created")
		}
		time.Sleep(time.Millisecond)
	}
	b.eng.Input(&protocol.Packet{
		SrcIP: ghost, DstIP: ipB, SrcPort: 4000, DstPort: 80,
		Flags: protocol.FlagRST, Seq: 101,
	})
	for {
		n := b.sp.HalfOpenCount()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("half-open entry not reaped by RST")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPassiveHalfOpenReapedWithoutFinalAck: if the handshake-completing
// ACK never arrives, the passive entry retransmits its SYN-ACK and is
// eventually reaped — the deadline satellite of the issue.
func TestPassiveHalfOpenReapedWithoutFinalAck(t *testing.T) {
	fab := fabric.New()
	ipB := protocol.MakeIPv4(10, 0, 0, 2)
	b := newNode(t, fab, ipB, fastCfg())
	b.sp.Listen(80, 0, 1)

	ghost := protocol.MakeIPv4(10, 0, 0, 99)
	b.eng.Input(&protocol.Packet{
		SrcIP: ghost, DstIP: ipB, SrcPort: 4001, DstPort: 80,
		Flags: protocol.FlagSYN, Seq: 100,
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, reaped := b.sp.HalfOpenCount(), b.sp.ctr.HandshakeTimeouts.Load()
		if n == 0 && reaped > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("half-open not reaped: entries=%d timeouts=%d", n, reaped)
		}
		time.Sleep(time.Millisecond)
	}
}

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

// TestFinWithDataGapDefersClose: a FIN arriving ahead of missing data
// (sequence gap) must not close the connection; the receiver re-acks
// and waits for the retransmission to fill the gap first.
func TestFinWithDataGapDefersClose(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, fastCfg())
	b := newNode(t, fab, ipB, fastCfg())
	f, _ := establish(t, a, b, ipB)

	f.Lock()
	ackNo, localSeq := f.AckNo, f.SeqNo
	f.Unlock()

	// FIN 10 bytes ahead of what we have: in-flight data was lost.
	a.eng.Input(&protocol.Packet{
		SrcIP: f.PeerIP, DstIP: f.LocalIP,
		SrcPort: f.PeerPort, DstPort: f.LocalPort,
		Flags: protocol.FlagFIN | protocol.FlagACK, Seq: ackNo + 10, Ack: localSeq,
	})
	time.Sleep(20 * time.Millisecond)
	f.Lock()
	finRcvd := f.FinReceived
	f.Unlock()
	if finRcvd {
		t.Fatal("FIN with a data gap was accepted early")
	}
	if a.eng.Table.Len() != 1 {
		t.Fatal("flow removed despite unfilled gap")
	}

	// The retransmitted in-order FIN closes normally.
	a.eng.Input(&protocol.Packet{
		SrcIP: f.PeerIP, DstIP: f.LocalIP,
		SrcPort: f.PeerPort, DstPort: f.LocalPort,
		Flags: protocol.FlagFIN | protocol.FlagACK, Seq: ackNo, Ack: localSeq,
	})
	ev := waitCtlEvent(t, a.ctx, 2*time.Second)
	if ev.Kind != fastpath.EvClosed {
		t.Fatalf("event = %+v, want EvClosed", ev)
	}
}

// TestLingerReAcksRetransmittedFin: after both sides close, the flow
// lingers briefly (removeFlowSoon); a retransmitted peer FIN during the
// linger window must be re-acked so the peer can finish its teardown.
func TestLingerReAcksRetransmittedFin(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, fastCfg())
	b := newNode(t, fab, ipB, fastCfg())
	f, _ := establish(t, a, b, ipB)

	var reAcks atomic.Int64
	f.Lock()
	finSeq, localSeq := f.AckNo, f.SeqNo
	f.Unlock()
	fab.Tap = func(ts int64, pkt *protocol.Packet) {
		if pkt.SrcIP == ipA && pkt.Flags.Has(protocol.FlagACK) && pkt.Ack == finSeq+1 {
			reAcks.Add(1)
		}
	}
	defer func() { fab.Tap = nil }()

	// Local close first (FIN out), then the peer's FIN arrives.
	a.sp.Close(f)
	deadline := time.Now().Add(time.Second)
	for {
		f.Lock()
		sent := f.FinSent
		f.Unlock()
		if sent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("local FIN never sent")
		}
		time.Sleep(time.Millisecond)
	}
	peerFin := &protocol.Packet{
		SrcIP: f.PeerIP, DstIP: f.LocalIP,
		SrcPort: f.PeerPort, DstPort: f.LocalPort,
		Flags: protocol.FlagFIN | protocol.FlagACK, Seq: finSeq, Ack: localSeq,
	}
	a.eng.Input(peerFin)
	ev := waitCtlEvent(t, a.ctx, 2*time.Second)
	if ev.Kind != fastpath.EvClosed {
		t.Fatalf("event = %+v, want EvClosed", ev)
	}

	// Retransmit the peer's FIN inside the linger window: must be
	// re-acked from the still-present flow state.
	a.eng.Input(peerFin)
	time.Sleep(10 * time.Millisecond)
	if n := reAcks.Load(); n < 2 {
		t.Fatalf("re-acks = %d, want the lingering flow to re-ack the duplicate FIN", n)
	}

	// After the linger the flow is gone.
	deadline = time.Now().Add(time.Second)
	for a.eng.Table.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flow not removed after linger")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFinRetransmittedUntilAcked: a FIN lost to a partition is
// retransmitted with backoff; once the partition heals the peer acks it
// and the closing entry clears.
func TestFinRetransmittedUntilAcked(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	cfg := fastCfg()
	cfg.MaxRetransmits = 10
	a := newNode(t, fab, ipA, cfg)
	b := newNode(t, fab, ipB, cfg)
	f, _ := establish(t, a, b, ipB)

	fab.Partition(ipA, ipB)
	a.sp.Close(f)
	time.Sleep(60 * time.Millisecond) // FIN and its first retransmits are lost
	fab.Heal(ipA, ipB)

	deadline := time.Now().Add(3 * time.Second)
	for {
		f.Lock()
		acked := f.FinAcked
		f.Unlock()
		rexmits := a.sp.ctr.FinRexmits.Load()
		if acked {
			if rexmits == 0 {
				t.Fatal("FIN acked without any retransmission despite partition")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("FIN never acked (rexmits=%d)", rexmits)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
