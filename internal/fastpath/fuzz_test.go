package fastpath

import (
	"math/rand"
	"testing"

	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/tcp"
)

// TestProcessRxInvariantFuzz hurls randomized packets — random sequence
// offsets, sizes, flags, ack numbers, windows — at the common-case RX
// path and checks the fast path's structural invariants after every
// packet. This is the robustness property §3.1 needs: the fast path is
// exposed to whatever arrives from the wire, and only exceptions may
// leave the common-case state machine.
func TestProcessRxInvariantFuzz(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, _ := testEngine()
		f := testFlow(e)
		ctx := NewContext(0, 2, 1<<14)
		e.RegisterContext(ctx)
		f.Context = 0

		appRead := make([]byte, 4096)
		for i := 0; i < 20000; i++ {
			prevAck := f.AckNo
			var pkt *protocol.Packet
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // in-order-ish data at random offsets
				off := int32(rng.Intn(8000) - 2000)
				n := rng.Intn(2000) + 1
				pkt = dataPkt(f, f.AckNo+uint32(off), make([]byte, n))
			case 4: // pure ack at a random point
				una := f.SeqNo - f.TxSent
				pkt = ackPkt(f, una+uint32(rng.Intn(4000)))
			case 5: // duplicate ack
				pkt = ackPkt(f, f.SeqNo-f.TxSent)
			case 6: // garbage ack far outside the window
				pkt = ackPkt(f, rng.Uint32())
			case 7: // window update
				pkt = ackPkt(f, f.SeqNo-f.TxSent)
				pkt.Window = uint16(rng.Intn(256))
			case 8: // data with ECN CE
				pkt = dataPkt(f, f.AckNo, make([]byte, rng.Intn(1448)+1))
				pkt.ECN = protocol.ECNCE
			default: // app activity: write + transmit, read some
				f.Lock()
				if f.TxBuf.Free() > 2048 {
					f.TxBuf.Write(make([]byte, rng.Intn(2048)+1))
				}
				e.transmit(e.cores[0], f)
				f.RxBuf.Read(appRead[:rng.Intn(len(appRead))])
				f.Unlock()
				e.flush(e.cores[0])
				continue
			}
			e.processRx(e.cores[rng.Intn(2)], pkt)

			// Invariants.
			if tcp.SeqLT(f.AckNo, prevAck) {
				t.Fatalf("seed %d pkt %d: AckNo went backward %d -> %d", seed, i, prevAck, f.AckNo)
			}
			if f.RxBuf.Used() > f.RxBuf.Size() || f.RxBuf.Used() < 0 {
				t.Fatalf("seed %d pkt %d: rx buffer accounting broken: used=%d", seed, i, f.RxBuf.Used())
			}
			if int(f.TxSent) > f.TxBuf.Used() {
				t.Fatalf("seed %d pkt %d: TxSent %d exceeds buffered %d", seed, i, f.TxSent, f.TxBuf.Used())
			}
			if f.OooLen > 0 {
				// The tracked interval must lie strictly beyond AckNo and
				// within the receive buffer's reach.
				if !tcp.SeqGT(f.OooStart, f.AckNo) {
					t.Fatalf("seed %d pkt %d: interval start %d not beyond ack %d", seed, i, f.OooStart, f.AckNo)
				}
				if tcp.SeqDiff(f.OooStart+f.OooLen, f.AckNo) > int32(f.RxBuf.Size()) {
					t.Fatalf("seed %d pkt %d: interval beyond buffer", seed, i)
				}
			}
		}
		// Drain events without error.
		evs := make([]Event, 1024)
		for ctx.PollEvents(evs) > 0 {
		}
	}
}

// TestDescriptorQueueFuzz hurls randomized TX requests at
// Engine.PushTxCmd — garbage opcodes, nil and fabricated flow
// references, structurally broken flows, impossible byte counts —
// interleaved with valid ones, and checks the fast path drops and
// counts exactly the malformed ones without panicking or corrupting the
// live flow (§3.3: applications are untrusted, so the request ring is
// an attack surface the fast path must validate defensively). The engine
// is never started: one-MSS requests run inline, larger ones wait on the
// ring for the test's steps.
func TestDescriptorQueueFuzz(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, _ := testEngine()
		f := testFlow(e)
		ctx := NewContext(0, 2, 64)
		e.RegisterContext(ctx)
		f.Context = 0

		step := func() int {
			n := 0
			for _, c := range e.cores {
				n += e.step(c, e.nowNanos())
			}
			return n
		}
		wantBad := uint64(0)
		for i := 0; i < 5000; i++ {
			var cmd TxCmd
			bad := true
			switch rng.Intn(6) {
			case 0: // valid command
				f.Lock()
				if free := f.TxBuf.Free(); free > 0 {
					n := rng.Intn(free) + 1
					f.TxBuf.Write(make([]byte, n))
					cmd = TxCmd{Op: OpTx, Flow: f, Bytes: uint32(n)}
					bad = false
				} else {
					cmd = TxCmd{Op: OpTx, Flow: f, Bytes: 1}
					bad = false
				}
				f.Unlock()
			case 1: // bogus opcode on a real flow
				op := uint8(rng.Intn(255)) + 1 // never 0 here; OpTx excluded below
				if op == OpTx {
					op++
				}
				cmd = TxCmd{Op: op, Flow: f, Bytes: 1}
			case 2: // nil flow
				cmd = TxCmd{Op: OpTx, Flow: nil, Bytes: uint32(rng.Intn(1 << 20))}
			case 3: // fabricated flow not in the table
				g := &flowstate.Flow{
					LocalIP:   e.cfg.LocalIP,
					LocalPort: uint16(rng.Intn(1 << 16)),
					PeerIP:    protocol.MakeIPv4(203, 0, 113, byte(rng.Intn(256))),
					PeerPort:  uint16(rng.Intn(1 << 16)),
					RxBuf:     f.RxBuf, // alias real buffers: must still be rejected
					TxBuf:     f.TxBuf,
				}
				cmd = TxCmd{Op: OpTx, Flow: g, Bytes: uint32(rng.Intn(1 << 10))}
			case 4: // structurally broken flow (nil buffers)
				cmd = TxCmd{Op: OpTx, Flow: &flowstate.Flow{}, Bytes: 1}
			default: // impossible byte count on a real flow
				cmd = TxCmd{Op: OpTx, Flow: f,
					Bytes: uint32(f.TxBuf.Size()) + uint32(rng.Intn(1<<20)) + 1}
			}
			if !e.PushTxCmd(ctx, cmd) {
				// Ring full: drain and retry once.
				for step() > 0 {
				}
				if !e.PushTxCmd(ctx, cmd) {
					t.Fatalf("seed %d cmd %d: ring still full after drain", seed, i)
				}
			}
			if bad {
				wantBad++
			}
			if rng.Intn(8) == 0 {
				step()
				// Ack everything so the tx buffer drains and valid commands
				// keep fitting.
				f.Lock()
				una := f.SeqNo
				f.Unlock()
				e.processRx(e.cores[0], ackPkt(f, una))
			}
		}
		for step() > 0 {
		}

		if d := e.Drops(); d.BadDesc != wantBad || d.StaleDesc != 0 {
			t.Fatalf("seed %d: bad_desc = %d, stale_desc = %d; want %d and 0", seed, d.BadDesc, d.StaleDesc, wantBad)
		}
		// The live flow must still be structurally sound.
		if int(f.TxSent) > f.TxBuf.Used() {
			t.Fatalf("seed %d: TxSent %d exceeds buffered %d", seed, f.TxSent, f.TxBuf.Used())
		}
		if e.Table.Lookup(f.Key()) != f {
			t.Fatalf("seed %d: live flow lost from table", seed)
		}
	}
}

// TestStreamIntegrityUnderReorderAndLoss drives a full sender/receiver
// conversation through the pure functions with random loss, reordering
// and CE marks, delivering each round's packets as receive batches of
// random length, and checks the receiver's byte stream is exactly the
// sender's prefix. This is the end-to-end correctness property of the
// one-interval design and of per-flow ACK coalescing: whatever is
// delivered is correct, in order, and without gaps.
func TestStreamIntegrityUnderReorderAndLoss(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Two engines wired back-to-back through lossy/reordering queues.
		nicA, nicB := &stubNIC{}, &stubNIC{}
		ea := NewEngine(nicA, Config{LocalIP: protocol.MakeIPv4(10, 0, 0, 1), MaxCores: 1})
		eb := NewEngine(nicB, Config{LocalIP: protocol.MakeIPv4(10, 0, 0, 2), MaxCores: 1})
		fa := &testFlowPair{}
		fa.wire(t, ea, eb)

		want := make([]byte, 0, 1<<20)
		next := byte(0)
		var delivered []byte

		for round := 0; round < 3000; round++ {
			// Sender app writes.
			fa.a.Lock()
			if fa.a.TxBuf.Free() > 1500 {
				n := rng.Intn(1400) + 1
				chunk := make([]byte, n)
				for i := range chunk {
					chunk[i] = next
					next++
				}
				fa.a.TxBuf.Write(chunk)
				want = append(want, chunk...)
			}
			ea.transmit(ea.cores[0], fa.a)
			fa.a.Unlock()
			ea.flush(ea.cores[0])

			// Network: shuffle, drop, mark, deliver A->B.
			pkts := nicA.out
			nicA.out = nil
			rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
			for _, p := range pkts {
				if rng.Float64() < 0.2 {
					p.ECN = protocol.ECNCE
				}
			}
			deliverBatches(rng, eb, pkts)
			// Receiver app reads.
			fa.b.Lock()
			buf := make([]byte, fa.b.RxBuf.Used())
			fa.b.RxBuf.Read(buf)
			fa.b.Unlock()
			delivered = append(delivered, buf...)

			// Acks B->A (also lossy).
			acks := nicB.out
			nicB.out = nil
			deliverBatches(rng, ea, acks)
			// Sender-side timeout surrogate: occasionally go back N.
			if round%97 == 96 {
				fa.a.Lock()
				ea.resetSender(fa.a)
				ea.transmit(ea.cores[0], fa.a)
				fa.a.Unlock()
				ea.flush(ea.cores[0])
			}
		}
		if len(delivered) == 0 {
			t.Fatalf("seed %d: nothing delivered", seed)
		}
		for i := range delivered {
			if delivered[i] != want[i] {
				t.Fatalf("seed %d: stream corrupt at byte %d: got %d want %d", seed, i, delivered[i], want[i])
			}
		}
	}
}

// deliverBatches drops 5% of pkts and hands the rest to e's core 0 in
// receive batches of random length.
func deliverBatches(rng *rand.Rand, e *Engine, pkts []*protocol.Packet) {
	kept := pkts[:0]
	for _, p := range pkts {
		if rng.Float64() >= 0.05 {
			kept = append(kept, p)
		}
	}
	for len(kept) > 0 {
		n := min(rng.Intn(stepBatch)+1, len(kept))
		e.processRxBatch(e.cores[0], kept[:n])
		kept = kept[n:]
	}
}

// testFlowPair wires two mirrored flows (a on engine A sending to b on
// engine B).
type testFlowPair struct{ a, b *flowstate.Flow }

func (p *testFlowPair) wire(t testing.TB, ea, eb *Engine) {
	t.Helper()
	p.a = testFlow(ea)
	// Mirror on B: local/peer swapped, sequence spaces aligned.
	p.b = testFlow(eb)
	orig := p.b.Key()
	eb.Table.Remove(orig)
	p.b.LocalIP, p.b.PeerIP = p.a.PeerIP, p.a.LocalIP
	p.b.LocalPort, p.b.PeerPort = p.a.PeerPort, p.a.LocalPort
	p.b.SeqNo = p.a.AckNo
	p.b.AckNo = p.a.SeqNo
	eb.Table.Insert(p.b)
}
