// Package conformance is a packetdrill-style TCP conformance harness
// for the TAS stack: each test drives a real engine + slow path +
// libtas instance through a deterministic segment script. The stack
// under test transmits into a capture queue instead of a fabric, and a
// scripted Peer injects hand-built segments directly into the engine —
// so every byte of every header the stack emits is assertable, and
// every input (old duplicates, blind RSTs, zero windows, silence) is
// producible on demand.
//
// The harness is intentionally strict where packetdrill is strict
// (sequence numbers, flags, payload lengths are matched exactly via
// predicates) and lenient where wall-clock scheduling forces it to be
// (expectations carry deadlines rather than exact timestamps; timer
// configs in the scripts are chosen so orderings cannot invert).
package conformance

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fastpath"
	"repro/internal/libtas"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/slowpath"
)

// captureNIC records every frame the stack under test transmits. The
// queue is far larger than any script's traffic; overflow is counted
// and fails the test at teardown rather than blocking a fast-path core.
type captureNIC struct {
	ch      chan *protocol.Packet
	dropped atomic.Uint64
	// onOutput, when set, runs on the transmitting goroutine before the
	// frame is queued: a peer that answers before the stack's send call
	// has even returned.
	onOutput atomic.Pointer[func(*protocol.Packet)]
}

func (n *captureNIC) Output(pkt *protocol.Packet) {
	if f := n.onOutput.Load(); f != nil {
		(*f)(pkt)
	}
	select {
	case n.ch <- pkt.Clone():
	default:
		n.dropped.Add(1)
	}
}

// Harness is one stack under test plus the capture queue its transmit
// side feeds.
type Harness struct {
	T     *testing.T
	IP    protocol.IPv4
	Eng   *fastpath.Engine
	Slow  *slowpath.Slowpath
	Stack *libtas.Stack
	Gov   *resource.Governor

	nic *captureNIC
}

// newHarness builds and starts a single-core stack under test. Zero
// fields of scfg keep slowpath defaults, except the control interval
// and payload buffers, which get conformance-friendly values.
func newHarness(t *testing.T, scfg slowpath.Config) *Harness {
	t.Helper()
	ip := protocol.MakeIPv4(10, 99, 0, 1)
	nic := &captureNIC{ch: make(chan *protocol.Packet, 8192)}
	eng := fastpath.NewEngine(nic, fastpath.Config{
		LocalIP: ip, LocalMAC: protocol.MACForIPv4(ip), MaxCores: 1,
	})
	gov := resource.New(resource.Limits{})
	eng.SetGovernor(gov)
	if scfg.ControlInterval == 0 {
		scfg.ControlInterval = 2 * time.Millisecond
	}
	if scfg.RxBufSize == 0 {
		scfg.RxBufSize = 64 << 10
	}
	if scfg.TxBufSize == 0 {
		scfg.TxBufSize = 64 << 10
	}
	scfg.Gov = gov
	slow := slowpath.New(eng, scfg)
	eng.Start()
	slow.Start()
	stack := libtas.NewStack(eng, slow)
	h := &Harness{T: t, IP: ip, Eng: eng, Slow: slow, Stack: stack, Gov: gov, nic: nic}
	t.Cleanup(func() {
		slow.Stop()
		eng.Stop()
		if d := nic.dropped.Load(); d != 0 {
			t.Errorf("capture queue overflowed: %d frames lost", d)
		}
	})
	return h
}

// Expect consumes captured frames until one satisfies match, failing
// the test if none does before the deadline. Non-matching frames are
// skipped (the stack is free to interleave pure ACKs and probes) but
// reported on failure so a wrong expectation is diagnosable.
func (h *Harness) Expect(d time.Duration, desc string, match func(*protocol.Packet) bool) *protocol.Packet {
	h.T.Helper()
	deadline := time.After(d)
	var skipped []string
	for {
		select {
		case pkt := <-h.nic.ch:
			if match(pkt) {
				return pkt
			}
			skipped = append(skipped, pkt.String())
		case <-deadline:
			h.T.Fatalf("timed out waiting for %s; skipped %d segments:\n%s",
				desc, len(skipped), strings.Join(skipped, "\n"))
			return nil
		}
	}
}

// ExpectNone watches the capture queue for the full duration and fails
// if any frame satisfies match. Non-matching frames are discarded.
func (h *Harness) ExpectNone(d time.Duration, desc string, match func(*protocol.Packet) bool) {
	h.T.Helper()
	deadline := time.After(d)
	for {
		select {
		case pkt := <-h.nic.ch:
			if match(pkt) {
				h.T.Fatalf("unexpected %s: %v", desc, pkt)
			}
		case <-deadline:
			return
		}
	}
}

// Drain discards everything currently in the capture queue.
func (h *Harness) Drain() {
	for {
		select {
		case <-h.nic.ch:
		default:
			return
		}
	}
}

// WaitCond polls cond at the control-tick cadence until it holds or
// the deadline passes.
func (h *Harness) WaitCond(d time.Duration, desc string, cond func() bool) {
	h.T.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	h.T.Fatalf("condition %q not reached within %v", desc, d)
}

// Peer is a scripted remote endpoint: it builds raw segments toward
// the stack under test and tracks absolute sequence state the way a
// packetdrill script's implicit remote does.
type Peer struct {
	h         *Harness
	IP        protocol.IPv4
	Port      uint16 // the peer's port
	StackPort uint16 // the stack-side port (listener, or learned from its SYN)

	ISN      uint32 // the peer's initial sequence number
	StackISN uint32 // the stack's ISN, learned from its SYN or SYN-ACK
	SndNxt   uint32 // next absolute sequence the peer will send
	RcvNxt   uint32 // next absolute sequence expected from the stack
	Win      uint16 // receive window the peer advertises (units of 1 KiB)
}

// NewPeer creates a scripted endpoint talking to stackPort on the
// harness stack from peerPort.
func (h *Harness) NewPeer(peerPort, stackPort uint16) *Peer {
	return &Peer{
		h: h, IP: protocol.MakeIPv4(10, 99, 0, 2),
		Port: peerPort, StackPort: stackPort,
		ISN: 1_000_000, Win: 64,
	}
}

// Inject fills in the peer's addressing and hands the segment to the
// stack's receive path.
func (p *Peer) Inject(pkt *protocol.Packet) {
	pkt.SrcMAC = protocol.MACForIPv4(p.IP)
	pkt.DstMAC = protocol.MACForIPv4(p.h.IP)
	pkt.SrcIP, pkt.DstIP = p.IP, p.h.IP
	pkt.SrcPort, pkt.DstPort = p.Port, p.StackPort
	p.h.Eng.Input(pkt)
}

// Send injects one segment with explicit absolute sequence numbers.
func (p *Peer) Send(flags protocol.TCPFlags, seq, ack uint32, payload []byte) {
	p.Inject(&protocol.Packet{
		Flags: flags, Seq: seq, Ack: ack, Window: p.Win,
		HasTS: true, TSVal: 1000, ECN: protocol.ECNECT0,
		Payload: payload,
	})
}

// SendAck injects a pure ACK of everything received so far, carrying
// the peer's current advertised window.
func (p *Peer) SendAck() { p.Send(protocol.FlagACK, p.SndNxt, p.RcvNxt, nil) }

// ToPeer matches frames addressed to this peer's tuple.
func (p *Peer) ToPeer(pkt *protocol.Packet) bool {
	return pkt.DstIP == p.IP && pkt.DstPort == p.Port && pkt.SrcPort == p.StackPort
}

// Handshake performs a scripted active open against a stack listener:
// SYN out, SYN-ACK asserted and learned, completing ACK in.
func (p *Peer) Handshake(d time.Duration) {
	p.h.T.Helper()
	p.Inject(&protocol.Packet{
		Flags: protocol.FlagSYN, Seq: p.ISN, Window: p.Win,
		MSSOpt: uint16(protocol.DefaultMSS),
		HasTS:  true, TSVal: 1000, ECN: protocol.ECNECT0,
	})
	synack := p.h.Expect(d, "SYN-ACK", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags.Has(protocol.FlagSYN|protocol.FlagACK) && q.Ack == p.ISN+1
	})
	if synack.MSSOpt == 0 {
		p.h.T.Errorf("SYN-ACK missing MSS option: %v", synack)
	}
	if !synack.HasTS {
		p.h.T.Errorf("SYN-ACK missing timestamp option: %v", synack)
	}
	p.StackISN = synack.Seq
	p.RcvNxt = synack.Seq + 1
	p.SndNxt = p.ISN + 1
	p.SendAck()
}

// AcceptHandshake performs a scripted passive open: the stack's Dial
// sends a SYN, which the peer answers; the final ACK is asserted.
func (p *Peer) AcceptHandshake(d time.Duration) {
	p.h.T.Helper()
	syn := p.h.Expect(d, "SYN", func(q *protocol.Packet) bool {
		return q.DstIP == p.IP && q.DstPort == p.Port &&
			q.Flags.Has(protocol.FlagSYN) && !q.Flags.Has(protocol.FlagACK)
	})
	p.StackPort = syn.SrcPort
	p.StackISN = syn.Seq
	p.RcvNxt = syn.Seq + 1
	p.Send(protocol.FlagSYN|protocol.FlagACK, p.ISN, p.RcvNxt, nil)
	p.h.Expect(d, "handshake ACK", func(q *protocol.Packet) bool {
		return p.ToPeer(q) && q.Flags == protocol.FlagACK && q.Ack == p.ISN+1
	})
	p.SndNxt = p.ISN + 1
}

// SendData injects in-order payload from the peer and advances SndNxt.
func (p *Peer) SendData(payload []byte) {
	p.Send(protocol.FlagACK|protocol.FlagPSH, p.SndNxt, p.RcvNxt, payload)
	p.SndNxt += uint32(len(payload))
}

// ExpectData collects exactly n contiguous payload bytes from the
// stack starting at RcvNxt, acking as segments arrive (duplicates are
// tolerated, gaps are reassembled). Returns the bytes.
func (p *Peer) ExpectData(n int, d time.Duration) []byte {
	p.h.T.Helper()
	buf := make([]byte, n)
	got := make([]bool, n)
	base := p.RcvNxt
	have := 0
	deadline := time.Now().Add(d)
	for have < n {
		remain := time.Until(deadline)
		if remain <= 0 {
			p.h.T.Fatalf("expected %d payload bytes, got %d before deadline", n, have)
		}
		pkt := p.h.Expect(remain, fmt.Sprintf("payload (have %d/%d)", have, n),
			func(q *protocol.Packet) bool { return p.ToPeer(q) && q.DataLen() > 0 })
		off := int(int32(pkt.Seq - base))
		for i, b := range pkt.Payload {
			at := off + i
			if at < 0 || at >= n {
				continue // retransmission below base, or probe overlap past n
			}
			if !got[at] {
				got[at] = true
				buf[at] = b
				have++
			}
		}
		// Advance the cumulative ack over the contiguous prefix.
		adv := 0
		for adv < n && got[adv] {
			adv++
		}
		p.RcvNxt = base + uint32(adv)
		p.SendAck()
	}
	return buf
}
