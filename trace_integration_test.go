package tas

import (
	"bytes"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/trace"
)

// TestHandshakeOnTheWire taps the live fabric, performs a connection +
// one RPC, and verifies the TCP conversation as it appears on the wire:
// SYN, SYN|ACK, handshake ACK, data with timestamps and ECT marking,
// acks, then FIN/ACK teardown. This is the protocol-conformance test —
// the same bytes a tcpdump of a real TAS deployment would show.
func TestHandshakeOnTheWire(t *testing.T) {
	fab, srv, cli := newPair(t, Config{})
	var rec trace.Recorder
	fab.f.SetTap(rec.Tap)

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8085)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		c.Write(buf[:n])
	}()
	cctx := cli.NewContext()
	c, err := cctx.Dial("10.0.0.1", 8085)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("wire-check")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	<-done
	c.Close()
	time.Sleep(50 * time.Millisecond) // let FIN/ACK drain

	recs := rec.Records()
	if len(recs) < 6 {
		t.Fatalf("captured only %d packets", len(recs))
	}
	var sawSyn, sawSynAck, sawHandshakeAck, sawData, sawDataAck, sawFin bool
	var clientISS uint32
	for _, r := range recs {
		p := r.Packet
		switch {
		case p.Flags.Has(protocol.FlagSYN | protocol.FlagACK):
			sawSynAck = true
			if !sawSyn {
				t.Error("SYN|ACK before SYN")
			}
			if p.MSSOpt == 0 {
				t.Error("SYN|ACK missing MSS option")
			}
		case p.Flags.Has(protocol.FlagSYN):
			sawSyn = true
			clientISS = p.Seq
			if p.MSSOpt == 0 {
				t.Error("SYN missing MSS option")
			}
			if !p.HasTS {
				t.Error("SYN missing timestamps")
			}
		case p.Flags.Has(protocol.FlagFIN):
			sawFin = true
		case p.DataLen() > 0:
			sawData = true
			if p.ECN != protocol.ECNECT0 {
				t.Error("data not ECN-capable")
			}
			if !p.HasTS {
				t.Error("data missing timestamp option")
			}
			// The echo carries the same payload in both directions:
			// check sequence numbering on the client's copy only.
			if p.SrcIP == cli.IP && bytes.Contains(p.Payload, []byte("wire-check")) && p.Seq != clientISS+1 {
				t.Errorf("first data seq %d, want ISS+1 = %d", p.Seq, clientISS+1)
			}
		case p.Flags.Has(protocol.FlagACK):
			if sawSynAck && !sawData {
				sawHandshakeAck = true
			} else if sawData {
				sawDataAck = true
			}
		}
	}
	for name, ok := range map[string]bool{
		"SYN": sawSyn, "SYN|ACK": sawSynAck, "handshake ACK": sawHandshakeAck,
		"data": sawData, "data ACK": sawDataAck, "FIN": sawFin,
	} {
		if !ok {
			t.Errorf("wire capture missing %s", name)
		}
	}

	// The capture round-trips through a standard pcap file.
	f, err := os.CreateTemp("", "tas-*.pcap")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(f.Name())
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.WritePacket(r.TsNanos, r.Packet); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	rf, err := os.Open(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rd, err := trace.NewReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		if _, err := rd.Next(); err != nil {
			break
		}
		count++
	}
	if count != len(recs) {
		t.Fatalf("pcap round trip: %d of %d packets", count, len(recs))
	}
}

// TestCaptureWhileTrafficFlows starts and stops a pcap capture three
// times while a bulk transfer runs. Under -race it checks that installing
// and removing the fabric's tap races no sender, and that nothing reaches
// the capture's writer once stop has returned: the test reads the
// buffer straight after.
func TestCaptureWhileTrafficFlows(t *testing.T) {
	fab, srv, cli := newPair(t, Config{})
	ln, err := srv.NewContext().Listen(8086)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err == nil {
			io.Copy(io.Discard, c)
		}
	}()
	c, err := cli.NewContext().Dial("10.0.0.1", 8086)
	if err != nil {
		t.Fatal(err)
	}
	quit, sent := make(chan struct{}), make(chan error, 1)
	go func() {
		chunk := make([]byte, 16<<10)
		for {
			select {
			case <-quit:
				sent <- nil
				return
			default:
			}
			if _, err := c.Write(chunk); err != nil {
				sent <- err
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		stop, err := fab.CaptureTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		if err := stop(); err != nil {
			t.Fatal(err)
		}
		rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			if _, err := rd.Next(); err != nil {
				break
			}
		}
		if n == 0 {
			t.Fatalf("capture %d saw no packet of a running transfer", i)
		}
	}
	close(quit)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	c.Close()
}
