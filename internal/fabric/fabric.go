// Package fabric is the live-mode network: an in-process Ethernet
// connecting TAS service instances (and any other packet handler) by IP
// address. It stands in for the NIC + switch of the paper's testbed when
// running the real fast path end to end. It has two tiers of delivery,
// as netem does: a direct hand-off to the destination's handler, or,
// once SetLink installs one, a link model per destination host (see
// link.go). Random and burst loss, link-down and partitions support
// failure testing.
package fabric

import (
	"maps"
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

// host is one attached host: its handler and, while a link model is
// installed, the link that serializes delivery toward it.
type host struct {
	h    Handler
	link *link
}

// routes is the fabric's routing and fault state. A published value is
// never changed: writers copy it, change the copy and swap it in, so
// send reads it with one atomic load and takes no lock.
type routes struct {
	hosts   map[protocol.IPv4]host
	down    map[protocol.IPv4]bool    // hosts whose link is down
	blocked map[[2]protocol.IPv4]bool // partitioned pairs (pairKey)
	link    *LinkConfig               // nil: the link model is off
	tap     func(tsNanos int64, pkt *protocol.Packet)
}

// Fabric connects attached hosts.
type Fabric struct {
	wmu sync.Mutex // serializes the writers of cur
	cur atomic.Pointer[routes]

	// The loss processes: a uniform draw at lossRate (stored as
	// math.Float64bits) from rng, and an optional Gilbert–Elliott burst
	// channel. Both chains are fabric-wide and drawn under lossMu, which
	// only a configured loss takes.
	lossMu   sync.Mutex
	rng      *rand.Rand
	ge       atomic.Pointer[stats.GilbertElliott]
	lossRate atomic.Uint64

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
	f := &Fabric{rng: rand.New(rand.NewSource(1))}
	f.cur.Store(&routes{
		hosts:   map[protocol.IPv4]host{},
		down:    map[protocol.IPv4]bool{},
		blocked: map[[2]protocol.IPv4]bool{},
	})
	return f
}

// update publishes a changed copy of the routing state. Writers are
// rare (attachment, fault schedule, link reconfiguration) and serialize
// on wmu; packets in flight keep the value they loaded.
func (f *Fabric) update(change func(r *routes)) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	r := *f.cur.Load()
	r.hosts, r.down, r.blocked = maps.Clone(r.hosts), maps.Clone(r.down), maps.Clone(r.blocked)
	change(&r)
	f.cur.Store(&r)
}

// Reseed re-seeds the fabric's private random source, which drives
// SetLossRate decisions. Scenario runs call this with the scenario seed
// so the loss process is part of the reproducible fault timeline rather
// than pinned to the construction-time default seed.
func (f *Fabric) Reseed(seed int64) {
	f.lossMu.Lock()
	f.rng = rand.New(rand.NewSource(seed))
	f.lossMu.Unlock()
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
	f.update(func(r *routes) {
		if down {
			r.down[ip] = true
		} else {
			delete(r.down, ip)
		}
	})
}

// Partition blocks all traffic between a and b (both directions) until
// Heal. Other pairs are unaffected.
func (f *Fabric) Partition(a, b protocol.IPv4) {
	f.update(func(r *routes) { r.blocked[pairKey(a, b)] = true })
}

// Heal removes the a<->b partition.
func (f *Fabric) Heal(a, b protocol.IPv4) {
	f.update(func(r *routes) { delete(r.blocked, pairKey(a, b)) })
}

// HealAll removes every partition and brings every link back up.
func (f *Fabric) HealAll() {
	f.update(func(r *routes) {
		r.down, r.blocked = map[protocol.IPv4]bool{}, map[[2]protocol.IPv4]bool{}
	})
}

// SetTap installs tap to observe every packet accepted onto the fabric,
// before loss and the link (a trace.Recorder.Tap or a pcap writer); nil
// removes it. The tap must be safe for concurrent use, and a sender that
// loaded the routes before the swap may still call the old tap after
// SetTap returns.
func (f *Fabric) SetTap(tap func(tsNanos int64, pkt *protocol.Packet)) {
	f.update(func(r *routes) { r.tap = tap })
}

// SetBurstLoss installs a seeded Gilbert–Elliott burst-loss channel in
// front of delivery (nil-equivalent: call ClearBurstLoss). Decisions
// are drawn per packet under the loss lock, so a fixed seed gives a
// reproducible loss pattern for a deterministic packet sequence.
func (f *Fabric) SetBurstLoss(cfg stats.GEConfig, seed int64) {
	f.ge.Store(stats.NewGilbertElliott(rand.New(rand.NewSource(seed)), cfg))
}

// ClearBurstLoss removes the burst-loss channel.
func (f *Fabric) ClearBurstLoss() { f.ge.Store(nil) }

// SetLossRate makes the fabric drop packets with probability p in [0,1).
// Safe to change while traffic flows (failure injection).
func (f *Fabric) SetLossRate(p float64) { f.lossRate.Store(math.Float64bits(p)) }

// LossRate returns the current loss probability.
func (f *Fabric) LossRate() float64 { return math.Float64frombits(f.lossRate.Load()) }

// Attach registers a handler for an IP and returns a NIC bound to it.
// While a link model is installed the host gets its link now.
func (f *Fabric) Attach(ip protocol.IPv4, h Handler) *NIC {
	f.update(func(r *routes) {
		d := host{h: h}
		if r.link != nil {
			d.link = &link{fab: f, h: h, cfg: *r.link}
		}
		r.hosts[ip] = d
	})
	return &NIC{fab: f, ip: ip}
}

// Detach removes a host.
func (f *Fabric) Detach(ip protocol.IPv4) {
	f.update(func(r *routes) { delete(r.hosts, ip) })
}

// lost draws the configured loss processes for one packet, burst loss
// first, and counts a drop.
func (f *Fabric) lost() bool {
	ge, p := f.ge.Load(), f.LossRate()
	if ge == nil && p <= 0 {
		return false
	}
	f.lossMu.Lock()
	defer f.lossMu.Unlock()
	if ge != nil && ge.Drop() {
		f.BurstDrops.Add(1)
		f.Dropped.Add(1)
		return true
	}
	if p > 0 && f.rng.Float64() < p {
		f.Dropped.Add(1)
		return true
	}
	return false
}

// send routes one packet to its destination host.
func (f *Fabric) send(pkt *protocol.Packet) {
	r := f.cur.Load()
	if r.tap != nil {
		r.tap(time.Now().UnixNano(), pkt)
	}
	if len(r.down) > 0 && (r.down[pkt.SrcIP] || r.down[pkt.DstIP]) {
		f.DownDrops.Add(1)
		f.Dropped.Add(1)
		return
	}
	if len(r.blocked) > 0 && r.blocked[pairKey(pkt.SrcIP, pkt.DstIP)] {
		f.PartitionDrops.Add(1)
		f.Dropped.Add(1)
		return
	}
	if f.lost() {
		return
	}
	dst, ok := r.hosts[pkt.DstIP]
	if !ok {
		f.NoRoute.Add(1)
		return
	}
	if dst.link != nil && !dst.link.send(pkt) {
		f.QueueDrops.Add(1)
		f.Dropped.Add(1)
		return
	}
	f.Delivered.Add(1)
	if dst.link == nil {
		dst.h(pkt)
	}
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
