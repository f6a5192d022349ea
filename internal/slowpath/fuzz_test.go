package slowpath

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/protocol"
)

// FuzzStateMachine drives the slow path's exception handler directly
// with adversarial packet sequences — flags, sequence numbers, and
// ports steered by the fuzzer — against a node with live listeners.
// Neither the engine nor the event loop is started, so every handler
// runs deterministically on the fuzzer's goroutine.
//
// Properties: no input sequence panics; listener backlog accounting
// never drifts from the half-open table (halfCount always equals the
// number of passive entries charged to that listener, and never goes
// negative); the half-open table never exceeds what the backlogs
// admit.
func FuzzStateMachine(f *testing.F) {
	// Seeds: a clean handshake, a handshake completed twice, a blind
	// RST volley, a SYN flood burst, and a cookie-mode completion.
	seed := func(records ...[14]byte) []byte {
		var out []byte
		for _, r := range records {
			out = append(out, r[:]...)
		}
		return out
	}
	mk := func(flags byte, srcSel, dstSel byte, seq, ack uint32, payload byte) [14]byte {
		var r [14]byte
		r[0] = flags
		r[1] = srcSel
		r[2] = dstSel
		binary.BigEndian.PutUint32(r[3:], seq)
		binary.BigEndian.PutUint32(r[7:], ack)
		r[11] = payload
		return r
	}
	synF := byte(protocol.FlagSYN)
	ackF := byte(protocol.FlagACK)
	rstF := byte(protocol.FlagRST)
	finF := byte(protocol.FlagFIN)
	f.Add(seed(mk(synF, 1, 0, 100, 0, 0), mk(ackF, 1, 0, 101, 1, 0)))
	f.Add(seed(mk(synF, 2, 0, 7, 0, 0), mk(ackF, 2, 0, 8, 1, 0), mk(ackF, 2, 0, 8, 1, 0)))
	f.Add(seed(mk(rstF, 1, 0, 0, 0, 0), mk(rstF|ackF, 1, 0, 1, 1, 0), mk(rstF, 1, 1, 9, 9, 0)))
	f.Add(seed(mk(synF, 0, 0, 1, 0, 0), mk(synF, 1, 0, 2, 0, 0), mk(synF, 2, 0, 3, 0, 0),
		mk(synF, 3, 0, 4, 0, 0), mk(synF, 4, 0, 5, 0, 0)))
	f.Add(seed(mk(synF|ackF, 1, 0, 50, 60, 0), mk(finF|ackF, 1, 1, 70, 80, 3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		fab := fabric.New()
		ip := protocol.MakeIPv4(10, 0, 0, 2)
		var eng *fastpath.Engine
		nic := fab.Attach(ip, func(p *protocol.Packet) {})
		eng = fastpath.NewEngine(nic, fastpath.Config{
			LocalIP: ip, LocalMAC: protocol.MACForIPv4(ip), MaxCores: 1,
		})
		s := New(eng, Config{
			// Tiny payload buffers: an input can establish hundreds of
			// flows, and the default 2×256KB per flow would turn large
			// inputs into allocation storms.
			RxBufSize: 4096, TxBufSize: 4096,
			ListenBacklog:    4,
			SynRateThreshold: 8,
		})
		ctx := fastpath.NewContext(0, 1, 64)
		eng.RegisterContext(ctx)
		if err := s.Listen(80, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Listen(81, 0, 2); err != nil {
			t.Fatal(err)
		}

		srcIPs := [4]protocol.IPv4{
			protocol.MakeIPv4(10, 0, 0, 1),
			protocol.MakeIPv4(10, 9, 0, 1),
			protocol.MakeIPv4(10, 9, 0, 2),
			protocol.MakeIPv4(192, 168, 1, 1),
		}
		dstPorts := [4]uint16{80, 81, 82, 40000}

		for steps := 0; len(data) >= 14 && steps < 512; steps++ {
			rec := data[:14]
			data = data[14:]
			pkt := &protocol.Packet{
				SrcIP: srcIPs[rec[1]%4], DstIP: ip,
				SrcPort: 1024 + uint16(rec[1])<<3, DstPort: dstPorts[rec[2]%4],
				Flags:  protocol.TCPFlags(rec[0]),
				Seq:    binary.BigEndian.Uint32(rec[3:]),
				Ack:    binary.BigEndian.Uint32(rec[7:]),
				MSSOpt: uint16(rec[12]) << 4,
				Window: uint16(rec[13]),
			}
			if n := int(rec[11]) % 32; n > 0 {
				pkt.Payload = make([]byte, n)
				pkt.PayloadLen = n
			}
			s.handleException(pkt)
			checkBacklogInvariants(t, s)
			// Drain accept events sometimes so both the deliverable and
			// queue-full (undeliverable accept) paths are exercised.
			if rec[13]&1 == 1 {
				var evs [16]fastpath.Event
				ctx.PollEvents(evs[:])
			}
		}
		// The timer pass must also hold the invariants, at the first
		// retransmission and past the last deadline.
		for _, d := range []time.Duration{s.cfg.HandshakeRTO, time.Hour} {
			s.handshakeSweep(eng.NowNanos() + d.Nanoseconds())
			checkBacklogInvariants(t, s)
		}
	})
}

// checkBacklogInvariants asserts listener/half-open consistency: no
// negative or orphaned backlog accounting, and every half-open queued
// exactly once, on the FIFO of the attempt its timer is at.
func checkBacklogInvariants(t *testing.T, s *Slowpath) {
	t.Helper()
	s.hs.mu.Lock()
	defer s.hs.mu.Unlock()
	passive := make(map[*listener]int)
	for _, h := range s.hs.half {
		if h.passive && h.lst != nil {
			passive[h.lst]++
		}
	}
	for port, l := range s.hs.listeners {
		if l.halfCount < 0 {
			t.Fatalf("listener %d: negative halfCount %d", port, l.halfCount)
		}
		if got := passive[l]; got != l.halfCount {
			t.Fatalf("listener %d: halfCount %d but %d passive entries", port, l.halfCount, got)
		}
		if l.halfCount > l.Backlog {
			t.Fatalf("listener %d: halfCount %d exceeds backlog %d", port, l.halfCount, l.Backlog)
		}
	}
	queued := 0
	for k, q := range s.hs.wait {
		for _, h := range q {
			if s.hs.half[h.key] == h {
				if h.rexmit.attempts != k {
					t.Fatalf("half-open %v after %d firings queued on FIFO %d", h.key, h.rexmit.attempts, k)
				}
				queued++
			}
		}
	}
	if queued != len(s.hs.half) {
		t.Fatalf("%d half-opens, %d of them queued", len(s.hs.half), queued)
	}
}
