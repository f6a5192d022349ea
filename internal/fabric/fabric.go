// Package fabric is the live-mode network: an in-process Ethernet
// connecting TAS service instances (and any other packet handler) by IP
// address. It stands in for the NIC + switch of the paper's testbed when
// running the real fast path end to end. Delivery is synchronous by
// default; optional per-fabric latency and random loss support failure
// testing.
package fabric

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// Handler consumes packets addressed to an attached host.
type Handler func(pkt *protocol.Packet)

// Fabric connects attached hosts.
type Fabric struct {
	mu    sync.RWMutex
	hosts map[protocol.IPv4]Handler
	rng   *rand.Rand

	// Fault-injection state (guarded by mu): per-host link state,
	// pairwise partitions, and an optional Gilbert–Elliott burst-loss
	// channel.
	downHosts map[protocol.IPv4]bool
	blocked   map[[2]protocol.IPv4]bool
	ge        *stats.GilbertElliott

	// latency delays delivery (0 = synchronous hand-off); nanoseconds.
	latency atomic.Int64
	// lossRate drops packets at random; stored as math.Float64bits.
	lossRate atomic.Uint64
	// linkCfg / links are the netem-grade link model (see link.go);
	// nil linkCfg means the model is off. Guarded by mu.
	linkCfg *LinkConfig
	links   map[protocol.IPv4]*link
	// Tap, when set, observes every packet accepted onto the fabric
	// (before loss/latency), e.g. a trace.Recorder.Tap or a pcap
	// writer. Must be safe for concurrent use.
	Tap func(tsNanos int64, pkt *protocol.Packet)

	Delivered atomic.Uint64
	Dropped   atomic.Uint64
	NoRoute   atomic.Uint64

	// Link-model counters (see link.go).
	QueueDrops atomic.Uint64 // dropped: link queue overflow
	CEMarks    atomic.Uint64 // ECN CE marks applied at link queues

	// Fault-injection drop counters.
	DownDrops      atomic.Uint64 // dropped: an endpoint's link was down
	PartitionDrops atomic.Uint64 // dropped: the host pair was partitioned
	BurstDrops     atomic.Uint64 // dropped: Gilbert–Elliott burst loss
}

// New returns an empty fabric.
func New() *Fabric {
	return &Fabric{
		hosts:     make(map[protocol.IPv4]Handler),
		rng:       rand.New(rand.NewSource(1)),
		downHosts: make(map[protocol.IPv4]bool),
		blocked:   make(map[[2]protocol.IPv4]bool),
		links:     make(map[protocol.IPv4]*link),
	}
}

// Reseed re-seeds the fabric's private random source, which drives
// SetLossRate decisions. Scenario runs call this with the scenario seed
// so the loss process is part of the reproducible fault timeline rather
// than pinned to the construction-time default seed.
func (f *Fabric) Reseed(seed int64) {
	f.mu.Lock()
	f.rng = rand.New(rand.NewSource(seed))
	f.mu.Unlock()
}

// pairKey canonicalizes an unordered host pair.
func pairKey(a, b protocol.IPv4) [2]protocol.IPv4 {
	if a > b {
		a, b = b, a
	}
	return [2]protocol.IPv4{a, b}
}

// SetLinkDown takes one host's link down (or back up): every packet to
// or from the host is dropped while down, modeling NIC/cable failure or
// a link flap. Safe to toggle while traffic flows.
func (f *Fabric) SetLinkDown(ip protocol.IPv4, down bool) {
	f.mu.Lock()
	if down {
		f.downHosts[ip] = true
	} else {
		delete(f.downHosts, ip)
	}
	f.mu.Unlock()
}

// Partition blocks all traffic between a and b (both directions) until
// Heal. Other pairs are unaffected.
func (f *Fabric) Partition(a, b protocol.IPv4) {
	f.mu.Lock()
	f.blocked[pairKey(a, b)] = true
	f.mu.Unlock()
}

// Heal removes the a<->b partition.
func (f *Fabric) Heal(a, b protocol.IPv4) {
	f.mu.Lock()
	delete(f.blocked, pairKey(a, b))
	f.mu.Unlock()
}

// HealAll removes every partition and brings every link back up.
func (f *Fabric) HealAll() {
	f.mu.Lock()
	f.downHosts = make(map[protocol.IPv4]bool)
	f.blocked = make(map[[2]protocol.IPv4]bool)
	f.mu.Unlock()
}

// SetBurstLoss installs a seeded Gilbert–Elliott burst-loss channel in
// front of delivery (nil-equivalent: call ClearBurstLoss). Decisions
// are drawn per packet under the fabric lock, so a fixed seed gives a
// reproducible loss pattern for a deterministic packet sequence.
func (f *Fabric) SetBurstLoss(cfg stats.GEConfig, seed int64) {
	f.mu.Lock()
	f.ge = stats.NewGilbertElliott(rand.New(rand.NewSource(seed)), cfg)
	f.mu.Unlock()
}

// ClearBurstLoss removes the burst-loss channel.
func (f *Fabric) ClearBurstLoss() {
	f.mu.Lock()
	f.ge = nil
	f.mu.Unlock()
}

// SetLossRate makes the fabric drop packets with probability p in [0,1).
// Safe to change while traffic flows (failure injection).
func (f *Fabric) SetLossRate(p float64) { f.lossRate.Store(math.Float64bits(p)) }

// LossRate returns the current loss probability.
func (f *Fabric) LossRate() float64 { return math.Float64frombits(f.lossRate.Load()) }

// SetLatency sets one-way delivery latency. Safe to change at runtime.
func (f *Fabric) SetLatency(d time.Duration) { f.latency.Store(int64(d)) }

// GetLatency returns the current one-way latency.
func (f *Fabric) GetLatency() time.Duration { return time.Duration(f.latency.Load()) }

// Attach registers a handler for an IP and returns a NIC bound to it.
func (f *Fabric) Attach(ip protocol.IPv4, h Handler) *NIC {
	f.mu.Lock()
	f.hosts[ip] = h
	f.mu.Unlock()
	return &NIC{fab: f, ip: ip}
}

// Detach removes a host.
func (f *Fabric) Detach(ip protocol.IPv4) {
	f.mu.Lock()
	delete(f.hosts, ip)
	f.mu.Unlock()
}

// send routes one packet to its destination host.
func (f *Fabric) send(pkt *protocol.Packet) {
	if tap := f.Tap; tap != nil {
		tap(time.Now().UnixNano(), pkt)
	}
	// One lock acquisition resolves everything the hop needs: fault
	// state, the destination's handler and its link.
	f.mu.RLock()
	down := len(f.downHosts) > 0 && (f.downHosts[pkt.SrcIP] || f.downHosts[pkt.DstIP])
	part := len(f.blocked) > 0 && f.blocked[pairKey(pkt.SrcIP, pkt.DstIP)]
	hasGE := f.ge != nil
	h := f.hosts[pkt.DstIP]
	linked, l := f.linkCfg != nil, f.links[pkt.DstIP]
	f.mu.RUnlock()
	if down {
		f.DownDrops.Add(1)
		f.Dropped.Add(1)
		return
	}
	if part {
		f.PartitionDrops.Add(1)
		f.Dropped.Add(1)
		return
	}
	if hasGE {
		f.mu.Lock()
		drop := f.ge != nil && f.ge.Drop()
		f.mu.Unlock()
		if drop {
			f.BurstDrops.Add(1)
			f.Dropped.Add(1)
			return
		}
	}
	if p := f.LossRate(); p > 0 {
		f.mu.Lock()
		drop := f.rng.Float64() < p
		f.mu.Unlock()
		if drop {
			f.Dropped.Add(1)
			return
		}
	}
	if h == nil {
		f.NoRoute.Add(1)
		return
	}
	if linked && l == nil {
		l = f.newLink(pkt.DstIP) // first packet toward this host
	}
	if l != nil {
		if !l.send(pkt, h) {
			f.QueueDrops.Add(1)
			f.Dropped.Add(1)
			return
		}
		f.Delivered.Add(1)
		return
	}
	f.Delivered.Add(1)
	if d := f.GetLatency(); d > 0 {
		time.AfterFunc(d, func() { h(pkt) })
		return
	}
	h(pkt)
}

// NIC is one host's attachment; it implements fastpath.NIC.
type NIC struct {
	fab *Fabric
	ip  protocol.IPv4
}

// Output transmits a packet onto the fabric.
func (n *NIC) Output(pkt *protocol.Packet) {
	if pkt.SrcIP == 0 {
		pkt.SrcIP = n.ip
	}
	if (pkt.DstMAC == protocol.MAC{}) {
		pkt.DstMAC = protocol.MACForIPv4(pkt.DstIP)
	}
	n.fab.send(pkt)
}

// IP returns the attachment address.
func (n *NIC) IP() protocol.IPv4 { return n.ip }
