package libtas

import (
	"io"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/protocol"
	"repro/internal/slowpath"
)

// newStackPair wires two full TAS instances over a fabric.
func newStackPair(t *testing.T) (*Stack, *Stack, *fabric.Fabric) {
	t.Helper()
	fab := fabric.New()
	mk := func(ip protocol.IPv4) *Stack {
		var eng *fastpath.Engine
		nic := fab.Attach(ip, func(p *protocol.Packet) { eng.Input(p) })
		eng = fastpath.NewEngine(nic, fastpath.Config{LocalIP: ip, LocalMAC: protocol.MACForIPv4(ip), MaxCores: 2})
		sp := slowpath.New(eng, slowpath.Config{})
		eng.Start()
		sp.Start()
		t.Cleanup(func() { sp.Stop(); eng.Stop() })
		return NewStack(eng, sp)
	}
	return mk(protocol.MakeIPv4(10, 0, 0, 1)), mk(protocol.MakeIPv4(10, 0, 0, 2)), fab
}

func TestDialListenEcho(t *testing.T) {
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, err := sctx.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 16)
		n, err := c.Recv(buf, 5*time.Second)
		if err != nil {
			done <- err
			return
		}
		_, err = c.Send(buf[:n], 5*time.Second)
		done <- err
	}()
	cctx := s1.NewContext()
	c, err := cctx.Dial(protocol.MakeIPv4(10, 0, 0, 2), 80, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send([]byte("abc"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := c.Recv(buf, 5*time.Second)
	if err != nil || string(buf[:n]) != "abc" {
		t.Fatalf("echo: %q %v", buf[:n], err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeout(t *testing.T) {
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, _ := sctx.Listen(81)
	go ln.Accept(5 * time.Second)
	cctx := s1.NewContext()
	c, err := cctx.Dial(protocol.MakeIPv4(10, 0, 0, 2), 81, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Recv(make([]byte, 8), 50*time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("returned before the deadline")
	}
}

func TestRebindMovesEvents(t *testing.T) {
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, _ := sctx.Listen(82)
	srvDone := make(chan error, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			srvDone <- err
			return
		}
		// Hand the connection to a fresh context, as an accept loop
		// would, then serve from "another goroutine" (here inline).
		hctx := s2.NewContext()
		c.Rebind(hctx)
		buf := make([]byte, 1024)
		total := 0
		for total < 100_000 {
			n, err := c.Recv(buf, 5*time.Second)
			if err != nil {
				srvDone <- err
				return
			}
			total += n
		}
		_, err = c.Send([]byte("ok"), 5*time.Second)
		srvDone <- err
	}()
	cctx := s1.NewContext()
	c, err := cctx.Dial(protocol.MakeIPv4(10, 0, 0, 2), 82, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100_000)
	if _, err := c.Send(payload, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := c.Recv(buf, 10*time.Second); err != nil || string(buf[:n]) != "ok" {
		t.Fatalf("reply: %q %v", buf[:n], err)
	}
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
}

func TestLowLevelAPIEvents(t *testing.T) {
	// The IX-like low-level interface: poll raw events off the context.
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, _ := sctx.Listen(83)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		n, _ := c.Recv(buf, 5*time.Second)
		c.Send(buf[:n], 5*time.Second)
	}()
	cctx := s1.NewContext()
	c, err := cctx.Dial(protocol.MakeIPv4(10, 0, 0, 2), 83, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send([]byte("xyz"), time.Second); err != nil {
		t.Fatal(err)
	}
	// Poll the raw fast-path context for EvData/EvTxAcked.
	fp := cctx.FP()
	deadline := time.Now().Add(5 * time.Second)
	var sawData, sawAcked bool
	var evs [32]fastpath.Event
	for time.Now().Before(deadline) && !(sawData && sawAcked) {
		n := fp.PollEvents(evs[:])
		for i := 0; i < n; i++ {
			switch evs[i].Kind {
			case fastpath.EvData:
				sawData = true
			case fastpath.EvTxAcked:
				sawAcked = true
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !sawData || !sawAcked {
		t.Fatalf("low-level events: data=%v acked=%v", sawData, sawAcked)
	}
	// The payload is read directly from the flow's receive buffer.
	buf := make([]byte, 16)
	n := c.RecvNoWait(buf)
	if string(buf[:n]) != "xyz" {
		t.Fatalf("payload: %q", buf[:n])
	}
}

func TestEOFAfterPeerClose(t *testing.T) {
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, _ := sctx.Listen(84)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		c.Send([]byte("bye"), time.Second)
		c.Close()
	}()
	cctx := s1.NewContext()
	c, err := cctx.Dial(protocol.MakeIPv4(10, 0, 0, 2), 84, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := c.Recv(buf, 5*time.Second)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("data before close: %q %v", buf[:n], err)
	}
	if _, err := c.Recv(buf, 5*time.Second); err != io.EOF {
		t.Fatalf("after close err = %v, want EOF", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	_, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, _ := sctx.Listen(85)
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept(10 * time.Second)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ln.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept never unblocked")
	}
}

// TestCloseBeforeAccept: a peer that closes a connection the server has
// not accepted yet closes that connection. Until Accept rebinds it, the
// flow's Opaque is its listener's index — which is also the index of the
// first accepted connection — so the close must be matched by flow, not
// by index: the accepted connection keeps working, and the late-accepted
// one reads EOF at once.
func TestCloseBeforeAccept(t *testing.T) {
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, err := sctx.Listen(86)
	if err != nil {
		t.Fatal(err)
	}
	cctx := s1.NewContext()
	srv := protocol.MakeIPv4(10, 0, 0, 2)
	ca, err := cctx.Dial(srv, 86, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ln.Accept(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cctx.Dial(srv, 86, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.Close(); err != nil {
		t.Fatal(err)
	}
	// The server's slow path posts B's EvAccepted, then its EvClosed, on
	// the context's queue 0; wait for both before accepting B.
	deadline := time.Now().Add(5 * time.Second)
	for sctx.FP().EventQueueLen(0) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("server never saw B's FIN")
		}
		time.Sleep(100 * time.Microsecond)
	}
	b, err := ln.Accept(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := b.Recv(buf, time.Second); n != 0 || err != io.EOF {
		t.Fatalf("B, closed before it was accepted: Recv = %d, %v, want EOF", n, err)
	}

	if _, err := ca.Send([]byte("ping"), time.Second); err != nil {
		t.Fatal(err)
	}
	n, err := a.Recv(buf, 5*time.Second)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("A after B's close: Recv = %q, %v", buf[:n], err)
	}
	if _, err := a.Send(buf[:n], time.Second); err != nil {
		t.Fatalf("A after B's close: Send: %v", err)
	}
	if n, err := ca.Recv(buf, 5*time.Second); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo = %q, %v", buf[:n], err)
	}
}
