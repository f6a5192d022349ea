package conformance

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/libtas"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/slowpath"
)

// TestPersistProbeThenWindowReopen: the peer advertises a zero window
// from the very first ACK, the app queues data, and the stack must
// probe rather than blast or give up. When the window reopens the
// whole payload arrives intact — the stall was survival, not loss.
func TestPersistProbeThenWindowReopen(t *testing.T) {
	h := newHarness(t, slowpath.Config{
		PersistRTO:       20 * time.Millisecond,
		MaxPersistProbes: 10,
	})
	ctx := h.Stack.NewContext()
	ln, err := ctx.Listen(7030)
	if err != nil {
		t.Fatal(err)
	}
	p := h.NewPeer(40030, 7030)
	p.Win = 0 // zero window from the completing ACK onward
	p.Handshake(expectIn)
	conn, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := conn.Send(payload, expectIn); err != nil {
		t.Fatal(err)
	}

	// The stall must produce a 1-byte window probe at SND.UNA carrying
	// real data, not a bare zero-length poke.
	probe := h.Expect(expectIn, "zero-window probe", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.DataLen() == 1 && q.Seq == p.RcvNxt &&
			q.Payload[0] == payload[0]
	})
	if c := h.Slow.Counters(); c.PersistProbes == 0 {
		t.Fatal("persist probe not counted")
	}

	// Reopen: accept the probe byte and advertise space again.
	p.Win = 64
	p.RcvNxt = probe.Seq + 1
	p.SendAck()

	if got := p.ExpectData(len(payload)-1, expectIn); !bytes.Equal(got, payload[1:]) {
		t.Fatal("payload corrupted across zero-window stall")
	}
	c := h.Slow.Counters()
	if c.Aborts != 0 || c.PeerDeadZeroWindow != 0 {
		t.Fatalf("reopened flow must not abort: aborts=%d peerDead=%d",
			c.Aborts, c.PeerDeadZeroWindow)
	}
	if h.Eng.Table.Len() != 1 {
		t.Fatal("flow did not survive the stall")
	}
}

// TestPersistBudgetExhaustion: a peer that advertises zero window and
// never reopens is indistinguishable from a dead one; after
// MaxPersistProbes unanswered probes the stack must abort with a
// peer-dead verdict and return every resource.
func TestPersistBudgetExhaustion(t *testing.T) {
	h := newHarness(t, slowpath.Config{
		PersistRTO:       10 * time.Millisecond,
		MaxPersistProbes: 3,
	})
	ctx := h.Stack.NewContext()
	ln, err := ctx.Listen(7031)
	if err != nil {
		t.Fatal(err)
	}
	p := h.NewPeer(40031, 7031)
	p.Win = 0
	p.Handshake(expectIn)
	conn, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(make([]byte, 1024), expectIn); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ { // every probe retransmits the same byte
		h.Expect(expectIn, "zero-window probe", func(q *protocol.Packet) bool {
			return p.ToPeer(q) && q.DataLen() == 1 && q.Seq == p.RcvNxt
		})
	}
	h.Expect(expectIn, "RST after probe budget", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags.Has(protocol.FlagRST)
	})
	_, rerr := conn.Recv(make([]byte, 8), expectIn)
	if !errors.Is(rerr, libtas.ErrPeerDead) {
		t.Fatalf("Recv after probe exhaustion = %v, want peer-dead", rerr)
	}
	if c := h.Slow.Counters(); c.PeerDeadZeroWindow != 1 {
		t.Fatalf("PeerDeadZeroWindow = %d, want 1", c.PeerDeadZeroWindow)
	}
	h.WaitCond(expectIn, "wedged flow fully reclaimed", func() bool {
		return h.Eng.Table.Len() == 0 &&
			h.Gov.Used(resource.PoolFlows) == 0 &&
			h.Gov.Used(resource.PoolPayload) == 0
	})
}

// TestKeepaliveAnsweredKeepsFlowAlive: an idle but responsive peer is
// probed below RCV.NXT (the classic garbage-byte keepalive) and each
// answer resets the liveness verdict — the flow never aborts.
func TestKeepaliveAnsweredKeepsFlowAlive(t *testing.T) {
	h := newHarness(t, slowpath.Config{
		KeepaliveTime:     60 * time.Millisecond,
		KeepaliveInterval: 20 * time.Millisecond,
		KeepaliveProbes:   2,
	})
	ctx := h.Stack.NewContext()
	ln, err := ctx.Listen(7032)
	if err != nil {
		t.Fatal(err)
	}
	p := h.NewPeer(40032, 7032)
	p.Handshake(expectIn)
	if _, err := ln.Accept(expectIn); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		h.Expect(expectIn, "keepalive probe", func(q *protocol.Packet) bool {
			return p.ToPeer(q) && q.DataLen() == 1 && q.Seq == p.RcvNxt-1 &&
				q.Flags == protocol.FlagACK
		})
		p.SendAck() // duplicate ACK: the answer that proves liveness
	}
	c := h.Slow.Counters()
	if c.KeepaliveProbesSent < 2 {
		t.Fatalf("KeepaliveProbesSent = %d, want >= 2", c.KeepaliveProbesSent)
	}
	if c.Aborts != 0 || c.PeerDeadKeepalive != 0 {
		t.Fatalf("answered keepalives must not abort: aborts=%d peerDead=%d",
			c.Aborts, c.PeerDeadKeepalive)
	}
	if h.Eng.Table.Len() != 1 {
		t.Fatal("idle-but-alive flow was torn down")
	}
}

// TestKeepaliveDeadPeerReclaimed: a silently dead peer is detected by
// the keepalive ladder itself — not by the app-liveness reaper and not
// by the governor's idle-reclaim — and the flow plus every pool charge
// is returned.
func TestKeepaliveDeadPeerReclaimed(t *testing.T) {
	h := newHarness(t, slowpath.Config{
		KeepaliveTime:     40 * time.Millisecond,
		KeepaliveInterval: 15 * time.Millisecond,
		KeepaliveProbes:   2,
	})
	ctx := h.Stack.NewContext()
	ln, err := ctx.Listen(7033)
	if err != nil {
		t.Fatal(err)
	}
	p := h.NewPeer(40033, 7033)
	p.Handshake(expectIn)
	conn, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ { // peer never answers
		h.Expect(expectIn, "keepalive probe", func(q *protocol.Packet) bool {
			return p.ToPeer(q) && q.DataLen() == 1 && q.Seq == p.RcvNxt-1
		})
	}
	h.Expect(expectIn, "RST after keepalive budget", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags.Has(protocol.FlagRST)
	})
	_, rerr := conn.Recv(make([]byte, 8), expectIn)
	if !errors.Is(rerr, libtas.ErrPeerDead) {
		t.Fatalf("Recv after keepalive exhaustion = %v, want peer-dead", rerr)
	}
	c := h.Slow.Counters()
	if c.PeerDeadKeepalive != 1 {
		t.Fatalf("PeerDeadKeepalive = %d, want 1", c.PeerDeadKeepalive)
	}
	if c.AppsReaped != 0 || c.GovIdleReclaimed != 0 {
		t.Fatalf("detection must come from keepalives, not reaper/idle-reclaim: reaped=%d idle=%d",
			c.AppsReaped, c.GovIdleReclaimed)
	}
	h.WaitCond(expectIn, "dead-peer flow fully reclaimed", func() bool {
		return h.Eng.Table.Len() == 0 &&
			h.Gov.Used(resource.PoolFlows) == 0 &&
			h.Gov.Used(resource.PoolPayload) == 0
	})
}

// TestKeepaliveProbesParkedFlowOnSchedule: a flow idle long enough to be
// parked off the control tick is still on the keepalive clock. The
// parked FIFO's head is its deadline, so the first probe goes out
// KeepaliveTime after the last segment — not before, and not a tick-set
// sweep later — and a silent peer is declared dead on the usual ladder.
func TestKeepaliveProbesParkedFlowOnSchedule(t *testing.T) {
	const idle = 200 * time.Millisecond
	h := newHarness(t, slowpath.Config{
		KeepaliveTime:     idle,
		KeepaliveInterval: 20 * time.Millisecond,
		KeepaliveProbes:   2,
	})
	conn, p := establish(t, h, 7034, 40034)
	lastHeard := time.Now() // the handshake's completing ACK

	h.WaitCond(idle/2, "idle flow parked well before its keepalive deadline", func() bool {
		_, parked := h.Slow.ControlSet()
		return parked == 1
	})
	if err := h.Slow.CheckControlInvariant(); err != nil {
		t.Fatal(err)
	}
	h.ExpectNone(idle/2, "keepalive probe before KeepaliveTime", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.DataLen() == 1
	})

	for i := 0; i < 2; i++ { // peer never answers
		h.Expect(expectIn, "keepalive probe", func(q *protocol.Packet) bool {
			return p.ToPeer(q) && q.DataLen() == 1 && q.Seq == p.RcvNxt-1
		})
		if i == 0 {
			if late := time.Since(lastHeard) - idle; late < -5*time.Millisecond || late > 60*time.Millisecond {
				t.Fatalf("first probe %v after the last segment, want KeepaliveTime (%v) within +60ms", time.Since(lastHeard), idle)
			}
			if active, parked := h.Slow.ControlSet(); active != 1 || parked != 0 {
				t.Fatalf("probe train running with %d active, %d parked", active, parked)
			}
		}
	}
	h.Expect(expectIn, "RST after keepalive budget", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags.Has(protocol.FlagRST)
	})
	if _, err := conn.Recv(make([]byte, 8), expectIn); !errors.Is(err, libtas.ErrPeerDead) {
		t.Fatalf("Recv after keepalive exhaustion = %v, want peer-dead", err)
	}
	h.WaitCond(expectIn, "dead-peer flow fully reclaimed", func() bool {
		return h.Eng.Table.Len() == 0 && h.Gov.Used(resource.PoolFlows) == 0
	})
	if err := h.Slow.CheckControlInvariant(); err != nil {
		t.Fatal(err)
	}
}
