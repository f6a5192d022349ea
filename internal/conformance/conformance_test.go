package conformance

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/libtas"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/slowpath"
)

// expectIn is the default deadline for a single expected segment: far
// above any timer in the scripts, far below the test timeout.
const expectIn = 3 * time.Second

// TestHandshakeAndDataExchange: the baseline script. Passive open with
// exact sequence assertions on the SYN-ACK, then one payload each way
// with cumulative-ack checks.
func TestHandshakeAndDataExchange(t *testing.T) {
	h := newHarness(t, slowpath.Config{})
	ctx := h.Stack.NewContext()
	ln, err := ctx.Listen(7001)
	if err != nil {
		t.Fatal(err)
	}
	p := h.NewPeer(40001, 7001)
	p.Handshake(expectIn)
	conn, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}

	p.SendData([]byte("hello"))
	h.Expect(expectIn, "cumulative ACK of payload", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags.Has(protocol.FlagACK) && q.Ack == p.SndNxt && q.DataLen() == 0
	})
	buf := make([]byte, 16)
	n, err := conn.Recv(buf, expectIn)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("Recv = %q, %v", buf[:n], err)
	}

	if _, err := conn.Send([]byte("world"), expectIn); err != nil {
		t.Fatal(err)
	}
	if got := p.ExpectData(5, expectIn); string(got) != "world" {
		t.Fatalf("peer received %q", got)
	}
}

// TestActiveOpenHandshake: the stack dials out; the scripted peer
// answers the SYN and asserts the completing ACK, then data flows.
func TestActiveOpenHandshake(t *testing.T) {
	h := newHarness(t, slowpath.Config{})
	ctx := h.Stack.NewContext()
	p := h.NewPeer(40002, 0) // stack port learned from its SYN

	type dialResult struct {
		conn *libtas.Conn
		err  error
	}
	done := make(chan dialResult, 1)
	go func() {
		conn, err := ctx.Dial(p.IP, p.Port, 5*time.Second)
		done <- dialResult{conn, err}
	}()
	p.AcceptHandshake(expectIn)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}

	if _, err := r.conn.Send([]byte("ping"), expectIn); err != nil {
		t.Fatal(err)
	}
	if got := p.ExpectData(4, expectIn); string(got) != "ping" {
		t.Fatalf("peer received %q", got)
	}
	p.SendData([]byte("pong"))
	buf := make([]byte, 8)
	n, err := r.conn.Recv(buf, expectIn)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("Recv = %q, %v", buf[:n], err)
	}
}

// TestPushMarksEndOfBurst: RFC 9293 push — a send segmented into three
// carries PSH on the segment that empties the unsent bytes, the third,
// and on no other (the receiver steps its core inline on that segment
// alone).
func TestPushMarksEndOfBurst(t *testing.T) {
	h := newHarness(t, slowpath.Config{})
	ctx := h.Stack.NewContext()
	ln, _ := ctx.Listen(7006)
	p := h.NewPeer(40007, 7006)
	p.Handshake(expectIn)
	conn, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}
	h.Drain()

	payload := bytes.Repeat([]byte{0x5C}, 2*protocol.DefaultMSS+100)
	if _, err := conn.Send(payload, expectIn); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{protocol.DefaultMSS, protocol.DefaultMSS, 100} {
		seg := h.Expect(expectIn, "data segment", func(q *protocol.Packet) bool {
			return p.ToPeer(q) && q.DataLen() > 0
		})
		if seg.DataLen() != want || seg.Seq != p.RcvNxt+uint32(i*protocol.DefaultMSS) {
			t.Fatalf("segment %d: %v, want %d bytes at %d", i, seg, want, p.RcvNxt+uint32(i*protocol.DefaultMSS))
		}
		if push := seg.Flags.Has(protocol.FlagPSH); push != (i == 2) {
			t.Fatalf("segment %d of 3: PSH %v", i, push)
		}
	}
}

// TestSynOnEstablishedDrawsChallengeAck: RFC 5961 §4 — a SYN landing
// on an established connection must not disturb it; the stack answers
// with a challenge ACK announcing its exact state.
func TestSynOnEstablishedDrawsChallengeAck(t *testing.T) {
	h := newHarness(t, slowpath.Config{})
	ctx := h.Stack.NewContext()
	ln, _ := ctx.Listen(7002)
	p := h.NewPeer(40003, 7002)
	p.Handshake(expectIn)
	if _, err := ln.Accept(expectIn); err != nil {
		t.Fatal(err)
	}
	h.Drain()

	p.Inject(&protocol.Packet{
		Flags: protocol.FlagSYN, Seq: p.SndNxt + 50, Window: p.Win,
		MSSOpt: uint16(protocol.DefaultMSS), ECN: protocol.ECNECT0,
	})
	h.Expect(expectIn, "challenge ACK", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags == protocol.FlagACK &&
			q.Seq == p.RcvNxt && q.Ack == p.SndNxt && q.DataLen() == 0
	})
	if h.Eng.Table.Len() != 1 {
		t.Fatalf("connection did not survive in-window SYN: %d flows", h.Eng.Table.Len())
	}
}

// TestBlindRstDrawsChallengeAck: RFC 5961 §3 — an RST inside the
// window but not at RCV.NXT must not tear down; it draws a challenge
// ACK and counts as a blind-RST drop.
func TestBlindRstDrawsChallengeAck(t *testing.T) {
	h := newHarness(t, slowpath.Config{})
	ctx := h.Stack.NewContext()
	ln, _ := ctx.Listen(7003)
	p := h.NewPeer(40004, 7003)
	p.Handshake(expectIn)
	if _, err := ln.Accept(expectIn); err != nil {
		t.Fatal(err)
	}
	h.Drain()

	p.Send(protocol.FlagRST, p.SndNxt+100, 0, nil)
	h.Expect(expectIn, "challenge ACK", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags == protocol.FlagACK &&
			q.Seq == p.RcvNxt && q.Ack == p.SndNxt
	})
	if h.Eng.Table.Len() != 1 {
		t.Fatal("connection did not survive blind RST")
	}
	if c := h.Slow.Counters(); c.BlindRstDrops == 0 {
		t.Fatal("blind RST not counted")
	}
}

// TestExactRstTearsDown: an RST at exactly RCV.NXT is the legitimate
// teardown form — the flow dies, the app sees a reset error, and every
// pool charge drains.
func TestExactRstTearsDown(t *testing.T) {
	h := newHarness(t, slowpath.Config{})
	ctx := h.Stack.NewContext()
	ln, _ := ctx.Listen(7004)
	p := h.NewPeer(40005, 7004)
	p.Handshake(expectIn)
	conn, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}

	p.Send(protocol.FlagRST, p.SndNxt, 0, nil)
	_, rerr := conn.Recv(make([]byte, 8), expectIn)
	if !errors.Is(rerr, libtas.ErrReset) {
		t.Fatalf("Recv after exact RST = %v, want reset", rerr)
	}
	if errors.Is(rerr, libtas.ErrPeerDead) {
		t.Fatal("peer RST must not classify as peer-dead (liveness verdict)")
	}
	h.WaitCond(expectIn, "flow removed and pools drained", func() bool {
		return h.Eng.Table.Len() == 0 &&
			h.Gov.Used(resource.PoolFlows) == 0 &&
			h.Gov.Used(resource.PoolPayload) == 0
	})
}

// TestSynCookieHandshake: with cookies forced on, the SYN-ACK's ISN is
// a keyed MAC and the slow path holds no half-open state; the
// completing ACK alone reconstructs the connection and data flows.
func TestSynCookieHandshake(t *testing.T) {
	h := newHarness(t, slowpath.Config{SynCookies: config.SynCookiesAlways})
	ctx := h.Stack.NewContext()
	ln, _ := ctx.Listen(7005)
	p := h.NewPeer(40006, 7005)
	p.Handshake(expectIn)
	conn, err := ln.Accept(expectIn)
	if err != nil {
		t.Fatal(err)
	}
	c := h.Slow.Counters()
	if c.SynCookiesSent == 0 || c.SynCookiesValidated == 0 {
		t.Fatalf("cookie path not exercised: sent=%d validated=%d",
			c.SynCookiesSent, c.SynCookiesValidated)
	}

	payload := bytes.Repeat([]byte{0xAB}, 2048)
	p.SendData(payload)
	buf := make([]byte, 4096)
	n, err := conn.Recv(buf, expectIn)
	if err != nil || !bytes.Equal(buf[:n], payload[:n]) {
		t.Fatalf("Recv over cookie-built flow: n=%d err=%v", n, err)
	}
}
