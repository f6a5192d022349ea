package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/congestion"
	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/libtas"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/shmring"
	"repro/internal/slowpath"
)

// Layer probes time what the facade hides: each layer's public
// functions called directly, no span or counter added to the product.
// No workload moves them, so they run in a process that has carried no
// load: -probe layers, which every traced run starts as a child of its
// own before it builds a stack. Every probe runs probeRounds times and
// reports the median round.
const probeRounds = 5

// sink keeps the compiler from discarding a probe's work.
var sink atomic.Uint64

// probeWork scales every probe's iteration count: -seconds over the
// default, so a short run (the test's) probes briefly too.
type probeWork float64

func (w probeWork) n(full int) int { return max(1, int(float64(full)*float64(w))) }

// timeLoop reports the median ns per iteration of body(n) over
// probeRounds rounds.
func timeLoop(n int, body func(n int)) float64 {
	rounds := make([]float64, 0, probeRounds)
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		body(n)
		rounds = append(rounds, float64(time.Since(t0))/float64(n))
	}
	return median(rounds)
}

// layerProbes is -probe layers: the probes in this process, reported
// like a run.
func layerProbes(stdout, stderr io.Writer, seed int64, seconds float64) int {
	newStamp(seed).print(stdout)
	fmt.Fprintf(stdout, "# layer probes, iteration counts x %.4g\n", seconds/defaultSeconds)
	r := &result{correct: true, attempted: uint64(len(probeDefs)), metrics: newMetrics(probeDefs)}
	if err := runProbes(r.metrics, seed, probeWork(seconds/defaultSeconds)); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return emit(stdout, stderr, r)
}

// probesInChild copies into m what -probe layers measures in a fresh
// process.
func probesInChild(m *metrics, seed int64, seconds float64) error {
	var stderr bytes.Buffer
	res, err := child(io.Discard, &stderr, "-probe", "layers",
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	if err != nil {
		return fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	for _, d := range probeDefs {
		v, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("layer probes did not report %s", d.name)
		}
		m.set(d.name, v.Value)
	}
	return nil
}

// runProbes fills every probe metric. A probe that cannot complete
// reports 0 and its error is returned with the others'.
func runProbes(m *metrics, seed int64, work probeWork) error {
	m.set("flowstate.flow_bytes", float64(unsafe.Sizeof(flowstate.Flow{})))
	m.set("flowstate.lookup_ns_1", probeLookup(1, seed, work))
	m.set("flowstate.lookup_ns_2048", probeLookup(2048, seed, work))

	spsc := shmring.NewSPSC[uint64](1024)
	m.set("shmring.spsc_hop_ns", timeLoop(work.n(2_000_000), func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			spsc.Enqueue(uint64(i))
			v, _ := spsc.Dequeue()
			acc += v
		}
		sink.Add(acc)
	}))
	mpsc := shmring.NewMPSC[uint64](1024)
	m.set("shmring.mpsc_hop_ns", timeLoop(work.n(2_000_000), func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			mpsc.Enqueue(uint64(i))
			v, _ := mpsc.Dequeue()
			acc += v
		}
		sink.Add(acc)
	}))
	m.set("shmring.payload_ns_64", probePayload(64, seed, work))
	m.set("shmring.payload_ns_mss", probePayload(protocol.DefaultMSS, seed, work))

	m.set("fabric.hop_ns", probeFabricHop(work))

	ctrl := congestion.NewRateDCTCP(congestion.DefaultConfig(40e9))
	m.set("congestion.update_ns", timeLoop(work.n(2_000_000), func(n int) {
		var acc float64
		for i := 0; i < n; i++ {
			acc += ctrl.Update(congestion.Feedback{AckedBytes: 64 << 10, RTT: 50_000, TxRate: 1e9})
		}
		sink.Add(uint64(acc))
	}))

	var errs []error
	half := func(name string, bufSize int, probe func(*halfStack) (float64, error)) {
		h := newHalfStack(bufSize)
		defer h.close()
		v, err := probe(h)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			v = 0
		}
		m.set(name, v)
	}
	half("slowpath.probe_handshake_us", rpcBufs.RxBufSize, func(h *halfStack) (float64, error) { return h.probeHandshake(work.n(200)) })
	half("fastpath.probe_rx_ns_pkt_64", 1<<20, func(h *halfStack) (float64, error) { return h.probeRx(64, 4096, work.n(200_000)) })
	half("fastpath.probe_rx_ns_pkt_mss", 1<<20, func(h *halfStack) (float64, error) { return h.probeRx(protocol.DefaultMSS, 512, work.n(50_000)) })
	half("fastpath.probe_tx_ns_pkt_mss", 1<<20, func(h *halfStack) (float64, error) { return h.probeTx(work.n(16 << 20)) })
	return errors.Join(errs...)
}

func probeLookup(flows int, seed int64, work probeWork) float64 {
	table := flowstate.NewTable()
	keys := make([]protocol.FlowKey, flows)
	for i := range keys {
		f := &flowstate.Flow{
			LocalIP: protocol.MakeIPv4(10, 0, 0, 1), LocalPort: 7100,
			PeerIP: protocol.MakeIPv4(10, 0, 0, 2), PeerPort: uint16(10000 + i),
		}
		table.Insert(f)
		keys[i] = f.Key()
	}
	// Seeded key order: a packet stream does not visit flows in
	// insertion order.
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return timeLoop(work.n(2_000_000), func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			acc += uint64(table.Lookup(keys[i%flows]).PeerPort)
		}
		sink.Add(acc)
	})
}

func probePayload(size int, seed int64, work probeWork) float64 {
	buf := shmring.NewPayloadBuffer(256 << 10)
	in, out := make([]byte, size), make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(in)
	return timeLoop(work.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			buf.Write(in)
			buf.Read(out)
		}
		sink.Add(uint64(out[0]))
	})
}

func probeFabricHop(work probeWork) float64 {
	fab := fabric.New()
	a, b := protocol.MakeIPv4(10, 1, 0, 1), protocol.MakeIPv4(10, 1, 0, 2)
	var got uint64
	nic := fab.Attach(a, func(*protocol.Packet) {})
	fab.Attach(b, func(p *protocol.Packet) { got += uint64(p.DstPort) })
	pkt := &protocol.Packet{SrcIP: a, DstIP: b, SrcPort: 1, DstPort: 2, Flags: protocol.FlagACK}
	ns := timeLoop(work.n(2_000_000), func(n int) {
		for i := 0; i < n; i++ {
			nic.Output(pkt)
		}
	})
	sink.Add(got)
	return ns
}

// halfStack is a conformance-style half of the system: one fast-path
// engine, its slow path and libtas on a NIC that delivers nowhere. The
// probe plays the peer, injecting hand-built segments through
// Engine.Input and looking at what the NIC was asked to send.
type halfStack struct {
	ip, peerIP protocol.IPv4
	eng        *fastpath.Engine
	slow       *slowpath.Slowpath
	ctx        *libtas.Context
	nic        *probeNIC
}

// probeNIC is the half-stack's transmit side. Output runs on a
// fast-path core (or the slow path), so what it does is part of what
// the probe times: count, and for the transmit probe answer every
// data segment with the ACK a peer would send.
type probeNIC struct {
	capture  chan *protocol.Packet // handshake segments, while non-nil
	dataSegs atomic.Uint64
	ackData  atomic.Pointer[func(*protocol.Packet)] // transmit probe only
}

func (n *probeNIC) Output(pkt *protocol.Packet) {
	if pkt.DataLen() > 0 {
		n.dataSegs.Add(1)
		if ack := n.ackData.Load(); ack != nil {
			(*ack)(pkt)
		}
		return
	}
	if pkt.Flags.Has(protocol.FlagSYN) {
		select {
		case n.capture <- pkt.Clone():
		default:
		}
	}
}

const (
	probePort     = 9000
	probePeerISN  = 1_000_000
	probeDeadline = 2 * time.Second
)

// noLimit is the "none" congestion policy of tas.NewService: a rate of
// 0 leaves the bucket open, so a probe times the transmit path and not
// the rate the controller happens to have reached.
type noLimit struct{}

func (noLimit) Name() string                       { return "none" }
func (noLimit) Update(congestion.Feedback) float64 { return 0 }
func (noLimit) Rate() float64                      { return 0 }

func newHalfStack(bufSize int) *halfStack {
	h := &halfStack{
		ip: protocol.MakeIPv4(10, 99, 0, 1), peerIP: protocol.MakeIPv4(10, 99, 0, 2),
		nic: &probeNIC{capture: make(chan *protocol.Packet, 16)}, // handshakes are one at a time
	}
	h.eng = fastpath.NewEngine(h.nic, fastpath.Config{
		LocalIP: h.ip, LocalMAC: protocol.MACForIPv4(h.ip), MaxCores: 1,
	})
	gov := resource.New(resource.Limits{})
	h.eng.SetGovernor(gov)
	h.slow = slowpath.New(h.eng, slowpath.Config{
		RxBufSize: bufSize, TxBufSize: bufSize, Gov: gov,
		NewController: func() congestion.RateController { return noLimit{} },
	})
	h.eng.Start()
	h.slow.Start()
	h.ctx = libtas.NewStack(h.eng, h.slow).NewContext()
	return h
}

func (h *halfStack) close() {
	h.slow.Stop()
	h.eng.Stop()
	h.ctx.KillApp()
}

func (h *halfStack) inject(peerPort uint16, pkt *protocol.Packet) {
	pkt.SrcMAC, pkt.DstMAC = protocol.MACForIPv4(h.peerIP), protocol.MACForIPv4(h.ip)
	pkt.SrcIP, pkt.DstIP = h.peerIP, h.ip
	pkt.SrcPort, pkt.DstPort = peerPort, probePort
	pkt.HasTS, pkt.TSVal, pkt.ECN = true, 1000, protocol.ECNECT0
	h.eng.Input(pkt)
}

// handshake plays an active open against a stack listener and returns
// the accepted connection and the stack's initial sequence number.
func (h *halfStack) handshake(ln *libtas.Listener, peerPort uint16) (*libtas.Conn, uint32, error) {
	h.inject(peerPort, &protocol.Packet{
		Flags: protocol.FlagSYN, Seq: probePeerISN, Window: 0xffff, MSSOpt: uint16(protocol.DefaultMSS),
	})
	var synack *protocol.Packet
	select {
	case synack = <-h.nic.capture:
	case <-time.After(probeDeadline):
		return nil, 0, errors.New("no SYN-ACK")
	}
	h.inject(peerPort, &protocol.Packet{
		Flags: protocol.FlagACK, Seq: probePeerISN + 1, Ack: synack.Seq + 1, Window: 0xffff,
	})
	c, err := ln.Accept(probeDeadline)
	if err != nil {
		return nil, 0, fmt.Errorf("accept: %w", err)
	}
	return c, synack.Seq, nil
}

// probeHandshake is the median time from the peer's SYN entering the
// engine to Accept returning the connection, in microseconds.
func (h *halfStack) probeHandshake(n int) (float64, error) {
	ln, err := h.ctx.Listen(probePort)
	if err != nil {
		return 0, err
	}
	var us []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, _, err := h.handshake(ln, uint16(20000+i)); err != nil {
			return 0, fmt.Errorf("handshake %d: %w", i, err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}

// waitFor yields until cond holds or the probe deadline passes.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(probeDeadline)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("probe deadline passed")
		}
		runtime.Gosched()
	}
	return nil
}

// probeRx is the wall time per in-order data segment from Engine.Input
// to the core having processed it (payload deposited, ACK handed to
// the NIC), the injector and the core running side by side. Segments
// are built and the receive buffer drained outside the timed part.
func (h *halfStack) probeRx(size, batch, total int) (float64, error) {
	ln, err := h.ctx.Listen(probePort)
	if err != nil {
		return 0, err
	}
	const peerPort = 30000
	conn, stackISN, err := h.handshake(ln, peerPort)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	drain := make([]byte, 1<<20)
	seq := uint32(probePeerISN + 1)
	_, ringCap := h.eng.RxRingDepth(0)
	rx := &h.eng.Stats(0).RxPackets
	var ns []float64
	for round := 0; round < total/batch+probeRounds; round++ {
		pkts := make([]*protocol.Packet, batch)
		for i := range pkts {
			pkts[i] = &protocol.Packet{
				Flags: protocol.FlagACK | protocol.FlagPSH, Seq: seq, Ack: stackISN + 1,
				Window: 0xffff, Payload: payload,
			}
			seq += uint32(size)
		}
		want := rx.Load() + uint64(batch)
		t0 := time.Now()
		for _, p := range pkts {
			for d, _ := h.eng.RxRingDepth(0); d >= ringCap-1; d, _ = h.eng.RxRingDepth(0) {
				runtime.Gosched()
			}
			h.inject(peerPort, p)
		}
		if err := waitFor(func() bool { return rx.Load() >= want }); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0))/float64(batch))
		for got := 0; got < batch*size; {
			n := conn.RecvNoWait(drain)
			if n == 0 {
				return 0, fmt.Errorf("receive buffer held %d of %d bytes", got, batch*size)
			}
			got += n
		}
	}
	if d := h.eng.Drops(); d.RxRingFull+d.RxBufFull+d.OooDropped > 0 {
		return 0, fmt.Errorf("probe dropped segments: %+v", d)
	}
	return median(ns), nil
}

// probeTx is the wall time per MSS-sized segment from Conn.Send to the
// NIC, with the peer's ACKs (one per segment, generated inside Output)
// feeding back through Engine.Input: segmentation, the rate bucket and
// ACK processing together.
func (h *halfStack) probeTx(total int) (float64, error) {
	ln, err := h.ctx.Listen(probePort)
	if err != nil {
		return 0, err
	}
	const peerPort = 30000
	conn, _, err := h.handshake(ln, peerPort)
	if err != nil {
		return 0, err
	}
	ack := func(pkt *protocol.Packet) {
		h.inject(peerPort, &protocol.Packet{
			Flags: protocol.FlagACK, Seq: probePeerISN + 1, Ack: pkt.Seq + uint32(pkt.DataLen()), Window: 0xffff,
		})
	}
	h.nic.ackData.Store(&ack)
	chunk := make([]byte, chunkSize)
	var ns []float64
	for round := 0; round < probeRounds+1; round++ {
		before := h.nic.dataSegs.Load()
		t0 := time.Now()
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := conn.Send(chunk, probeDeadline); err != nil {
				return 0, fmt.Errorf("send: %w", err)
			}
		}
		if err := waitFor(func() bool { return conn.Stats().TxQueued == 0 }); err != nil {
			return 0, err
		}
		segs := h.nic.dataSegs.Load() - before
		if round > 0 { // the first round warms the path
			ns = append(ns, float64(time.Since(t0))/float64(segs))
		}
	}
	return median(ns), nil
}

// stubTransport stands in for a connection when the generator loop
// itself is timed: writes are remembered, reads return them, and the
// load is told to stop after a fixed number of writes.
type stubTransport struct {
	last []byte
	left int
	stop *atomic.Bool
}

func (s *stubTransport) WriteTimeout(p []byte, _ time.Duration) (int, error) {
	s.last = p
	if s.left--; s.left == 0 {
		s.stop.Store(true)
	}
	return len(p), nil
}
func (s *stubTransport) ReadTimeout(p []byte, _ time.Duration) (int, error) {
	return copy(p, s.last), nil
}
func (s *stubTransport) Write(p []byte) (int, error) { return s.WriteTimeout(p, 0) }
func (s *stubTransport) Read(p []byte) (int, error)  { return s.ReadTimeout(p, 0) }
func (s *stubTransport) Close() error                { return nil }

// nullOpNs is the cost of one op in the workload's generator loop with
// the transport stubbed: build the request, read the clock, compare,
// record. rpc_paced is timed as its closed-loop equivalent; what its
// generator spends waiting for the schedule shows as CPU time instead.
func nullOpNs(w workload, seed uint64) float64 {
	return timeLoop(200_000, func(n int) {
		l := &load{clk: clock{epoch: time.Now()}, seed: seed}
		stub := &stubTransport{left: n, stop: &l.stop}
		if w.kind == bulk {
			l.bulkClient(stub, 0, &gen{})
		} else {
			l.closedClient(stub, 0, &gen{})
		}
	})
}
