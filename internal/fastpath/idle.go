package fastpath

import (
	"sync/atomic"
	"time"
)

// spinWindow caps a core's polling credit: however hard it just worked,
// a core that goes quiet parks within this much idle polling. It covers
// the inter-packet gaps of a streaming flow (a bulk sender sees ~90us
// between ACK batches) without monopolizing a shared CPU in real lulls.
const spinWindow = 200 * time.Microsecond

// creditPerWork is the polling credit, in nanoseconds, a core earns per
// nanosecond it spends doing work: idle-poll CPU is bounded by this
// factor of useful CPU, which is what makes an idle stack cost nothing
// and a busy one never sleep.
const creditPerWork = 4

// parkBeat bounds one park: a core with nothing to do still surfaces
// this often so the core watchdog sees its heartbeat advance.
const parkBeat = 100 * time.Millisecond

// idlePolicy is the poll-or-park rule of one fast-path core (§3.4):
// the core polls while it holds credit and parks on its doorbell
// otherwise. Credit is earned by working and spent by idle polling, so
// a core that streams (40us of segments every 130us) or answers a
// closed-loop RPC client (1.5us every 5us) never runs dry, while a core
// serving one request every 50us parks a few microseconds after each.
// It is driven by explicit timestamps — every stretch of the core's
// time ends in exactly one of worked, polled or parked — and reads no
// clock itself.
type idlePolicy struct {
	mark   int64 // when the current stretch began
	credit int64 // nanoseconds of idle polling the core may still spend
}

func (p *idlePolicy) stretch(now int64) int64 {
	d := now - p.mark
	p.mark = now
	return d
}

// worked ends a stretch of work at now and returns its length.
func (p *idlePolicy) worked(now int64) int64 {
	d := p.stretch(now)
	p.credit = min(p.credit+creditPerWork*d, int64(spinWindow))
	return d
}

// polled ends a stretch of fruitless polling at now and returns its
// length.
func (p *idlePolicy) polled(now int64) int64 {
	d := p.stretch(now)
	p.credit = max(p.credit-d, 0)
	return d
}

// parked ends a stretch spent waiting on the doorbell; it neither earns
// nor costs credit.
func (p *idlePolicy) parked(now int64) int64 { return p.stretch(now) }

// mayPoll reports whether the core has credit left to poll on.
func (p *idlePolicy) mayPoll() bool { return p.credit > 0 }

// idleClock is a core's cumulative time in one idle state (parked, or
// polling empty queues), readable mid-stretch without a lock. Between
// stretches the word holds the total; during one it holds the total
// minus the stretch's start time, tagged in the low bit, so a reader
// completes the sum with its own clock — a core descheduled for
// milliseconds inside a yield must not read as working meanwhile. Only
// the core writes.
type idleClock struct{ v atomic.Int64 }

func (c *idleClock) enter(now int64) { c.v.Store((c.v.Load()>>1-now)<<1 | 1) }
func (c *idleClock) leave(now int64) { c.v.Store((c.v.Load()>>1 + now) << 1) }

// total returns the nanoseconds spent in the state up to now.
func (c *idleClock) total(now int64) int64 {
	v := c.v.Load()
	if v&1 != 0 {
		return v>>1 + now
	}
	return v >> 1
}
