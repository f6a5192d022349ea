package libtas

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/protocol"
)

func TestConnStatsAndResize(t *testing.T) {
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, _ := sctx.Listen(94)
	srvConn := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err == nil {
			srvConn <- c
		}
	}()
	cctx := s1.NewContext()
	c, err := cctx.Dial(protocol.MakeIPv4(10, 0, 0, 2), 94, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-srvConn

	st := c.Stats()
	oldRx, oldTx := st.RxBufSize, st.TxBufSize
	if oldRx <= 0 || oldTx <= 0 {
		t.Fatal("buffer sizes missing")
	}
	// Grow both buffers 4x; connection keeps working.
	c.ResizeBuffers(oldRx*4, oldTx*4)
	st = c.Stats()
	if st.RxBufSize != oldRx*4 || st.TxBufSize != oldTx*4 {
		t.Fatalf("resize: %d/%d, want %d/%d", st.RxBufSize, st.TxBufSize, oldRx*4, oldTx*4)
	}
	// A payload larger than the ORIGINAL tx buffer now fits in one Send.
	big := make([]byte, oldTx*2)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64<<10)
		hctx := s2.NewContext()
		srv.Rebind(hctx)
		got := 0
		for got < len(big) {
			n, err := srv.Recv(buf, 5*time.Second)
			if err != nil {
				done <- err
				return
			}
			got += n
		}
		done <- nil
	}()
	if _, err := c.Send(big, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// After traffic there is an RTT estimate.
	if c.Stats().RTTMicros == 0 {
		t.Log("no RTT estimate yet (acceptable on loopback timing)")
	}
}

func TestZeroCopySendRecv(t *testing.T) {
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, _ := sctx.Listen(95)
	srvConn := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err == nil {
			srvConn <- c
		}
	}()
	cctx := s1.NewContext()
	c, err := cctx.Dial(protocol.MakeIPv4(10, 0, 0, 2), 95, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-srvConn

	// Zero-copy send: assemble the message directly in the tx buffer.
	msg := []byte("zero-copy through shared payload buffers")
	n, err := c.SendZeroCopy(len(msg), func(a, b []byte) int {
		k := copy(a, msg)
		k += copy(b, msg[k:])
		return k
	})
	if err != nil || n != len(msg) {
		t.Fatalf("send n=%d err=%v", n, err)
	}
	// Zero-copy receive on the server.
	var got []byte
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < len(msg) && time.Now().Before(deadline) {
		srv.ctx.dispatch()
		srv.RecvZeroCopy(1<<16, func(a, b []byte) int {
			got = append(got, a...)
			got = append(got, b...)
			return len(a) + len(b)
		})
		time.Sleep(100 * time.Microsecond)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestZeroCopyFillValidation(t *testing.T) {
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, _ := sctx.Listen(96)
	go ln.Accept(5 * time.Second)
	cctx := s1.NewContext()
	c, err := cctx.Dial(protocol.MakeIPv4(10, 0, 0, 2), 96, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid fill count should panic")
		}
	}()
	c.SendZeroCopy(16, func(a, b []byte) int { return len(a) + len(b) + 1 })
}

func TestSendNoWait(t *testing.T) {
	s1, s2, _ := newStackPair(t)
	sctx := s2.NewContext()
	ln, _ := sctx.Listen(97)
	go ln.Accept(5 * time.Second)
	cctx := s1.NewContext()
	c, err := cctx.Dial(protocol.MakeIPv4(10, 0, 0, 2), 97, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the buffer without blocking; eventually ErrWouldBlock.
	chunk := make([]byte, 64<<10)
	sawWouldBlock := false
	for i := 0; i < 100; i++ {
		_, err := c.SendNoWait(chunk)
		if err == ErrWouldBlock {
			sawWouldBlock = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawWouldBlock {
		t.Fatal("full buffer never reported ErrWouldBlock (peer not reading)")
	}
}
