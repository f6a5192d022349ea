package fastpath

import (
	"testing"

	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/shmring"
)

// stepRx queues pkts on core 0's receive ring and runs one step of the
// never-started engine e over them: one receive batch.
func stepRx(t testing.TB, e *Engine, pkts ...*protocol.Packet) {
	t.Helper()
	c := e.cores[0]
	for _, p := range pkts {
		if !c.rxRing.Enqueue(p) {
			t.Fatal("rx ring full")
		}
	}
	if len(pkts) > stepBatch {
		t.Fatalf("%d packets do not fit one batch", len(pkts))
	}
	e.step(c, e.nowNanos())
}

// rxPair is two never-started one-core engines and one flow between
// them (a on ea sends to b on eb), whose NICs record what they emit.
type rxPair struct {
	ea, eb     *Engine
	nicA, nicB *stubNIC
	testFlowPair
}

func newRxPair(t *testing.T) *rxPair {
	p := &rxPair{nicA: &stubNIC{}, nicB: &stubNIC{}}
	cfg := func(ip protocol.IPv4) Config {
		return Config{LocalIP: ip, LocalMAC: protocol.MACForIPv4(ip), MaxCores: 1, SlowPathTimeout: -1}
	}
	p.ea = NewEngine(p.nicA, cfg(protocol.MakeIPv4(10, 0, 0, 1)))
	p.eb = NewEngine(p.nicB, cfg(protocol.MakeIPv4(10, 0, 0, 2)))
	p.wire(t, p.ea, p.eb)
	return p
}

// sendSegs has a transmit n MSS segments and returns them, taken off
// its NIC.
func (p *rxPair) sendSegs(t *testing.T, n int) []*protocol.Packet {
	t.Helper()
	p.a.TxBuf.Write(make([]byte, n*protocol.DefaultMSS))
	p.ea.transmitFlow(p.ea.cores[0], p.a)
	segs := p.nicA.out
	p.nicA.out = nil
	if len(segs) != n {
		t.Fatalf("sent %d segments, want %d", len(segs), n)
	}
	return segs
}

// takeAcks returns what b emitted since the last call.
func (p *rxPair) takeAcks() []*protocol.Packet {
	acks := p.nicB.out
	p.nicB.out = nil
	return acks
}

// TestBatchOneAckPerFlow: a full batch of in-order MSS segments draws
// one ACK — for the last byte, echoing the first segment's TSVal (RFC
// 7323 §4.3) — and one EvData carrying all of it, without allocating.
func TestBatchOneAckPerFlow(t *testing.T) {
	nic := &stubNIC{}
	e := oneCoreEngine(nic)
	f := testFlow(e)
	f.RxBuf = shmring.NewPayloadBuffer(256 << 10)
	ctx := NewContext(0, 1, 1024)
	e.RegisterContext(ctx)
	payload := make([]byte, protocol.DefaultMSS)
	pkts := make([]*protocol.Packet, stepBatch)
	for i := range pkts {
		pkts[i] = dataPkt(f, f.AckNo+uint32(i*len(payload)), payload)
		pkts[i].TSVal = 1000 + uint32(i)
	}
	start := f.AckNo
	stepRx(t, e, pkts...)

	want := start + stepBatch*protocol.DefaultMSS
	if f.AckNo != want {
		t.Fatalf("AckNo = %d, want %d", f.AckNo, want)
	}
	if len(nic.out) != 1 {
		t.Fatalf("%d ACKs for one flow's batch, want 1", len(nic.out))
	}
	if ack := nic.out[0]; ack.Ack != want || !ack.HasTS || ack.TSEcr != 1000 || ack.Window != e.advertisedWindow(f) {
		t.Fatalf("ACK ack=%d TSEcr=%d window=%d, want ack=%d TSEcr=1000 window=%d",
			ack.Ack, ack.TSEcr, ack.Window, want, e.advertisedWindow(f))
	}
	var evs [8]Event
	if n := ctx.PollEvents(evs[:]); n != 1 || evs[0].Kind != EvData || evs[0].Bytes != stepBatch*protocol.DefaultMSS {
		t.Fatalf("events = %v, want one EvData of %d bytes", evs[:n], stepBatch*protocol.DefaultMSS)
	}
	if got := e.cores[0].stats.AcksSent.Load(); got != 1 {
		t.Fatalf("AcksSent = %d, want 1", got)
	}

	if protocol.OwnershipChecked {
		return // race builds make sync.Pool drop items at random
	}
	e.nic = releaseNIC{}
	batch := func() {
		for i, p := range pkts {
			p.Seq = f.AckNo + uint32(i*len(payload))
		}
		stepRx(t, e, pkts...)
		ctx.PollEvents(evs[:])
		f.RxBuf.Release(f.RxBuf.Used())
	}
	batch() // warm the pool
	if n := testing.AllocsPerRun(100, batch); n != 0 {
		t.Fatalf("a 64-segment batch allocates %v objects, want 0", n)
	}
}

// TestBatchCEChangeSplitsAck: a coalesced ACK covers segments of one CE
// state only, so DCTCP's ECE echo stays byte-exact — the sender counts
// exactly the marked bytes.
func TestBatchCEChangeSplitsAck(t *testing.T) {
	p := newRxPair(t)
	segs := p.sendSegs(t, 5)
	ce := []bool{false, false, true, true, false}
	for i, s := range segs {
		if ce[i] {
			s.ECN = protocol.ECNCE
		}
	}
	stepRx(t, p.eb, segs...)
	acks := p.takeAcks()
	if len(acks) != 3 {
		t.Fatalf("%d ACKs for CE pattern no/no/CE/CE/no, want 3", len(acks))
	}
	mss := uint32(protocol.DefaultMSS)
	una := p.a.SeqNo - p.a.TxSent
	for i, w := range []struct {
		ack uint32
		ece bool
	}{{una + 2*mss, false}, {una + 4*mss, true}, {una + 5*mss, false}} {
		if acks[i].Ack != w.ack || acks[i].Flags.Has(protocol.FlagECE) != w.ece {
			t.Fatalf("ACK %d: ack=%d ECE=%v, want ack=%d ECE=%v", i, acks[i].Ack, acks[i].Flags.Has(protocol.FlagECE), w.ack, w.ece)
		}
	}
	stepRx(t, p.ea, acks...)
	if p.a.CntEcnB != 2*mss || p.a.CntAckB != 5*mss {
		t.Fatalf("sender counted %d ECN bytes of %d acked, want %d of %d", p.a.CntEcnB, p.a.CntAckB, 2*mss, 5*mss)
	}
}

// TestBatchDupAcksKeepTheirOwn: an in-order run followed by three
// out-of-order segments draws the run's ACK, then one duplicate ACK per
// segment, in order — and the peer's three-duplicate-ACK fast retransmit
// fires on them.
func TestBatchDupAcksKeepTheirOwn(t *testing.T) {
	p := newRxPair(t)
	segs := p.sendSegs(t, 8)
	for i, s := range segs {
		s.TSVal = 100 + uint32(i)
	}
	lost := segs[4]
	stepRx(t, p.eb, segs[0], segs[1], segs[2], segs[3], segs[5], segs[6], segs[7])
	acks := p.takeAcks()
	if len(acks) != 4 {
		t.Fatalf("%d ACKs, want the run's and 3 duplicates", len(acks))
	}
	for i, echo := range []uint32{100, 105, 106, 107} {
		if acks[i].Ack != lost.Seq || acks[i].TSEcr != echo {
			t.Fatalf("ACK %d: ack=%d TSEcr=%d, want ack=%d TSEcr=%d", i, acks[i].Ack, acks[i].TSEcr, lost.Seq, echo)
		}
	}
	stepRx(t, p.ea, acks...)
	if p.a.CntFrexmits != 1 {
		t.Fatalf("fast retransmits = %d, want 1", p.a.CntFrexmits)
	}
	if len(p.nicA.out) == 0 || p.nicA.out[0].Seq != lost.Seq {
		t.Fatalf("no retransmission from the gap at %d", lost.Seq)
	}
}

// excqNIC records, for each packet output, how many exceptions were
// queued for the slow path at that moment.
type excqNIC struct {
	e      *Engine
	out    []*protocol.Packet
	queued []int
}

func (n *excqNIC) Output(p *protocol.Packet) {
	n.out = append(n.out, p)
	n.queued = append(n.queued, n.e.excq.Len())
}

// TestBatchFinAfterData: a FIN never overtakes data that came before it
// in the batch. The slow path must find the data deposited when it takes
// the FIN — otherwise it sees a FIN beyond RCV.NXT, only ACKs it, and the
// peer has to retransmit its FIN — and its ACK of the FIN must not
// overtake the data's.
func TestBatchFinAfterData(t *testing.T) {
	nic := &excqNIC{}
	e := oneCoreEngine(nic)
	nic.e = e
	f := testFlow(e)
	ctx := NewContext(0, 1, 64)
	e.RegisterContext(ctx)
	d1 := dataPkt(f, f.AckNo, []byte("abcd"))
	d2 := dataPkt(f, f.AckNo+4, []byte("efgh"))
	fin := dataPkt(f, f.AckNo+8, nil)
	fin.Flags |= protocol.FlagFIN
	stepRx(t, e, d1, d2, fin)

	q, _ := e.Exceptions()
	got, ok := q.Dequeue()
	if !ok || got != fin {
		t.Fatal("FIN not forwarded to the slow path")
	}
	if f.AckNo != fin.Seq || f.RxBuf.Used() != 8 {
		t.Fatalf("AckNo=%d (FIN at %d), %d bytes deposited, want the 8 before the FIN", f.AckNo, fin.Seq, f.RxBuf.Used())
	}
	if len(nic.out) != 1 || nic.out[0].Ack != fin.Seq {
		t.Fatalf("%d packets out, want the data's one ACK", len(nic.out))
	}
	if nic.queued[0] != 0 {
		t.Fatal("the data's ACK left after the FIN was forwarded")
	}
	var evs [8]Event
	if n := ctx.PollEvents(evs[:]); n != 1 || evs[0].Kind != EvData || evs[0].Bytes != 8 {
		t.Fatalf("events = %v, want one EvData of 8 bytes", evs[:n])
	}
}

// TestBatchInterleavedFlows: two flows interleaved in one batch are each
// worked as a group of their own: one ACK and one EvData each.
func TestBatchInterleavedFlows(t *testing.T) {
	nic := &stubNIC{}
	e := oneCoreEngine(nic)
	f1, f2 := portFlow(e, 5001), portFlow(e, 5002)
	f2.Opaque = 8
	ctx := NewContext(0, 1, 64)
	e.RegisterContext(ctx)
	seg := func(f *flowstate.Flow, k int, n int) *protocol.Packet {
		return dataPkt(f, f.AckNo+uint32(k), make([]byte, n))
	}
	stepRx(t, e, seg(f1, 0, 10), seg(f2, 0, 20), seg(f1, 10, 30), seg(f2, 20, 40), seg(f1, 40, 50))

	if len(nic.out) != 2 {
		t.Fatalf("%d ACKs for two flows, want 2", len(nic.out))
	}
	for i, w := range []struct {
		f     *flowstate.Flow
		bytes uint32
	}{{f1, 90}, {f2, 60}} {
		if ack := nic.out[i]; ack.DstPort != w.f.PeerPort || ack.Ack != w.f.AckNo || w.f.RxBuf.Used() != int(w.bytes) {
			t.Fatalf("flow %d: ACK to port %d ack=%d (AckNo %d), %d bytes deposited, want %d",
				i, ack.DstPort, ack.Ack, w.f.AckNo, w.f.RxBuf.Used(), w.bytes)
		}
	}
	var evs [8]Event
	n := ctx.PollEvents(evs[:])
	if n != 2 || evs[0] != (Event{Kind: EvData, Opaque: f1.Opaque, Bytes: 90}) || evs[1] != (Event{Kind: EvData, Opaque: f2.Opaque, Bytes: 60}) {
		t.Fatalf("events = %v, want one EvData per flow", evs[:n])
	}
}
