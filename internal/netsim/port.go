// Package netsim is the packet-level discrete-event network simulator
// that stands in for the paper's 10/40 GbE testbed and for its ns-3
// simulations. It models store-and-forward output-queued links with
// configurable bandwidth, propagation delay, drop-tail queues, DCTCP-style
// ECN marking thresholds, and random loss injection; switches with
// ECMP-by-flow-hash routing; and topology builders for the evaluation's
// setups (single link, incast star, and the 3-level FatTree of §5.5).
package netsim

import (
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Deliverable receives packets from the network.
type Deliverable interface {
	Deliver(pkt *protocol.Packet)
}

// DeliverFunc adapts a function to the Deliverable interface.
type DeliverFunc func(*protocol.Packet)

// Deliver implements Deliverable.
func (f DeliverFunc) Deliver(p *protocol.Packet) { f(p) }

// PortConfig describes one unidirectional link attachment.
type PortConfig struct {
	RateBps      float64  // link bandwidth, bits/s
	PropDelay    sim.Time // propagation delay
	QueueCap     int      // max queued packets (drop-tail); <=0 means 1000
	ECNThreshold int      // mark CE when queue >= threshold (0 = no marking)
	LossRate     float64  // random drop probability in [0,1)
}

// PortStats counts what happened at a port.
type PortStats struct {
	TxPackets uint64
	TxBytes   uint64
	Drops     uint64 // queue-overflow drops
	LossDrops uint64 // injected random losses
	CEMarks   uint64

	// Time-weighted queue length integral for average-queue reporting.
	qlenArea     float64
	lastQlenTime sim.Time
	maxQlen      int
}

// Port is a unidirectional transmission resource: a drop-tail FIFO queue
// drained at the link rate, followed by a propagation delay. The egress
// side of every link and every switch port is a Port.
type Port struct {
	eng   *sim.Engine
	cfg   PortConfig
	peer  Deliverable
	queue []*protocol.Packet
	busy  bool
	stats PortStats
}

// NewPort returns a port feeding peer.
func NewPort(eng *sim.Engine, cfg PortConfig, peer Deliverable) *Port {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1000
	}
	if cfg.RateBps <= 0 {
		panic("netsim: port needs positive rate")
	}
	return &Port{eng: eng, cfg: cfg, peer: peer}
}

// Stats returns a snapshot of the port counters.
func (p *Port) Stats() PortStats { return p.stats }

// AvgQueueLen returns the time-weighted average queue length since the
// start of the run.
func (p *Port) AvgQueueLen() float64 {
	p.accountQlen()
	if p.eng.Now() == 0 {
		return 0
	}
	return p.stats.qlenArea / float64(p.eng.Now())
}

// MaxQueueLen returns the maximum instantaneous queue length observed.
func (p *Port) MaxQueueLen() int { return p.stats.maxQlen }

func (p *Port) accountQlen() {
	now := p.eng.Now()
	p.stats.qlenArea += float64(len(p.queue)) * float64(now-p.stats.lastQlenTime)
	p.stats.lastQlenTime = now
}

// Send enqueues a packet for transmission. Overflow and injected loss
// drop silently (counted in stats), as a real switch would.
func (p *Port) Send(pkt *protocol.Packet) {
	if p.cfg.LossRate > 0 && p.eng.Rand().Float64() < p.cfg.LossRate {
		p.stats.LossDrops++
		return
	}
	p.enqueue(pkt)
}

// enqueue admits a packet to the drop-tail queue and starts the
// transmitter if idle.
func (p *Port) enqueue(pkt *protocol.Packet) {
	if len(p.queue) >= p.cfg.QueueCap {
		p.stats.Drops++
		return
	}
	// DCTCP-style marking: mark on enqueue when the queue has built past
	// the threshold, only for ECN-capable packets.
	if p.cfg.ECNThreshold > 0 && len(p.queue) >= p.cfg.ECNThreshold &&
		(pkt.ECN == protocol.ECNECT0 || pkt.ECN == protocol.ECNECT1) {
		pkt = pkt.Clone()
		pkt.ECN = protocol.ECNCE
		p.stats.CEMarks++
	}
	p.accountQlen()
	p.queue = append(p.queue, pkt)
	if len(p.queue) > p.stats.maxQlen {
		p.stats.maxQlen = len(p.queue)
	}
	if !p.busy {
		p.busy = true
		p.startTx()
	}
}

func (p *Port) startTx() {
	pkt := p.queue[0]
	txTime := sim.Time(float64(pkt.WireLen()*8) / p.cfg.RateBps * 1e9)
	if txTime < 1 {
		txTime = 1
	}
	p.eng.After(txTime, func() {
		p.accountQlen()
		p.queue = p.queue[1:]
		p.stats.TxPackets++
		p.stats.TxBytes += uint64(pkt.WireLen())
		delivered := pkt
		p.eng.After(p.cfg.PropDelay, func() { p.peer.Deliver(delivered) })
		if len(p.queue) > 0 {
			p.startTx()
		} else {
			p.busy = false
		}
	})
}
