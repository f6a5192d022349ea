package fabric

import (
	"sync"
	"time"

	"repro/internal/protocol"
)

// LinkConfig is the netem-grade link model for live-mode delivery. A
// flat delay (deliver everything d later) would give every packet
// infinite bandwidth: packets written back-to-back arrive back-to-back
// in an artificial burst, and any added loss produces a receiver-limited
// TCP that collapses instead of degrading (the netem exemplar's "with
// delay" implementation). This model instead separates, per destination
// host, the three delays a real link imposes:
//
//   - transmission: each packet occupies the link for wirelen*8/RateBps;
//   - queueing: packets that arrive while the link transmits wait in a
//     bounded drop-tail FIFO (overflow counted in Fabric.QueueDrops);
//   - propagation: a constant PropDelay after transmission completes.
//
// With the queue bounded and the transmitter serialized, loss and rate
// sweeps produce congestion-limited degradation — graceful, not cliff.
type LinkConfig struct {
	// RateBps is the link bandwidth in bits/s (must be > 0).
	RateBps float64

	// QueueCap bounds the per-destination drop-tail queue in packets
	// (<= 0 means 256).
	QueueCap int

	// PropDelay is the one-way propagation delay added after a packet's
	// transmission completes.
	PropDelay time.Duration

	// ECNThreshold, when > 0, marks ECN-capable packets CE when they
	// arrive to a queue at or past this depth (DCTCP-style marking at
	// the congestion point).
	ECNThreshold int
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	return c
}

// link serializes delivery toward one destination host: a bounded
// drop-tail FIFO drained at the configured rate, then a propagation
// delay. It is the live-time mirror of netsim.Port.
//
// Draining runs on a virtual transmit clock (free): each packet's
// transmission completes at free+wirelen*8/rate, and a drain pass
// delivers every packet whose completion is due, then re-arms one timer
// for the next. Delivering in elapsed-time batches (rather than one
// timer per packet) keeps the modeled rate correct even though Go
// timers fire with ~millisecond slop — per-packet timers at tens of
// microseconds would silently throttle the link to the timer rate.
type link struct {
	fab *Fabric
	h   Handler // the destination host's

	mu    sync.Mutex
	cfg   LinkConfig
	queue []*protocol.Packet
	busy  bool
	free  time.Time // when the transmitter finishes its current packet
}

// send admits one packet. Returns false when the queue is full (the
// caller counts the drop).
func (l *link) send(pkt *protocol.Packet) bool {
	l.mu.Lock()
	if len(l.queue) >= l.cfg.QueueCap {
		l.mu.Unlock()
		return false
	}
	if th := l.cfg.ECNThreshold; th > 0 && len(l.queue) >= th &&
		(pkt.ECN == protocol.ECNECT0 || pkt.ECN == protocol.ECNECT1) {
		pkt = pkt.Clone()
		pkt.ECN = protocol.ECNCE
		l.fab.CEMarks.Add(1)
	}
	l.queue = append(l.queue, pkt)
	if !l.busy {
		l.busy = true
		now := time.Now()
		if l.free.Before(now) {
			l.free = now // the transmitter sat idle until this packet
		}
		l.armTimer(now)
	}
	l.mu.Unlock()
	return true
}

// txTime is one packet's transmission time at the configured rate.
func (l *link) txTime(p *protocol.Packet) time.Duration {
	tx := time.Duration(float64(p.WireLen()*8) / l.cfg.RateBps * 1e9)
	if tx <= 0 {
		tx = time.Nanosecond
	}
	return tx
}

// armTimer schedules the next drain pass for the head-of-line packet's
// virtual completion. Caller holds l.mu; exactly one timer is
// outstanding per link, so per-destination delivery stays FIFO.
func (l *link) armTimer(now time.Time) {
	wait := l.free.Add(l.txTime(l.queue[0])).Sub(now)
	if wait <= 0 {
		wait = time.Microsecond
	}
	time.AfterFunc(wait, l.drain)
}

// drain delivers every queued packet whose virtual transmission has
// completed by now, advances the transmit clock, and re-arms the timer
// for the remainder. Batching by elapsed time absorbs timer slop: if
// the timer fired 1ms late at a 100 Mbit/s rate, the ~12 packets whose
// serialization finished in that millisecond all leave now, preserving
// the configured average rate (bursts stay bounded by the slop, far
// from the whole-window bursts of the flat-delay model).
func (l *link) drain() {
	l.mu.Lock()
	now := time.Now()
	var out []*protocol.Packet
	for len(l.queue) > 0 {
		done := l.free.Add(l.txTime(l.queue[0]))
		if done.After(now) {
			break
		}
		l.free = done
		out = append(out, l.queue[0])
		l.queue = l.queue[1:]
	}
	prop := l.cfg.PropDelay
	if len(l.queue) > 0 {
		l.armTimer(now)
	} else {
		l.busy = false
	}
	l.mu.Unlock()

	deliver := func() {
		for _, p := range out {
			l.h(p)
		}
	}
	if prop > 0 {
		// Batches are scheduled at monotonically later completion times
		// with the same offset, so cross-batch order is preserved.
		time.AfterFunc(prop, deliver)
	} else {
		deliver()
	}
}

// SetLink installs (or reconfigures) the netem-grade link model: every
// destination host gets a bounded FIFO drained at cfg.RateBps followed
// by cfg.PropDelay, and a host attached later gets its own at Attach.
// Reconfiguring while traffic flows is safe and takes effect for queued
// and future packets (an impairment schedule changing the rate mid-run).
// Panics if cfg.RateBps <= 0.
func (f *Fabric) SetLink(cfg LinkConfig) {
	if cfg.RateBps <= 0 {
		panic("fabric: link model needs a positive rate")
	}
	cfg = cfg.withDefaults()
	f.update(func(r *routes) {
		r.link = &cfg
		for ip, d := range r.hosts {
			if d.link == nil {
				d.link = &link{fab: f, h: d.h, cfg: cfg}
				r.hosts[ip] = d
				continue
			}
			d.link.mu.Lock()
			d.link.cfg = cfg
			d.link.mu.Unlock()
		}
	})
}

// ClearLink removes the link model, returning to direct delivery.
// Packets already queued on links still drain.
func (f *Fabric) ClearLink() {
	f.update(func(r *routes) {
		r.link = nil
		for ip, d := range r.hosts {
			r.hosts[ip] = host{h: d.h}
		}
	})
}

// LinkRate returns the link model's rate in bits/s, or 0 when no model
// is installed.
func (f *Fabric) LinkRate() float64 {
	if l := f.cur.Load().link; l != nil {
		return l.RateBps
	}
	return 0
}
