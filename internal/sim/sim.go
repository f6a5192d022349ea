// Package sim is the discrete-event simulation engine underlying the TAS
// reproduction's benchmark mode. It provides a deterministic event loop
// with a nanosecond-resolution virtual clock. Network elements, simulated
// CPU cores, and workload generators all schedule callbacks on a single
// Engine; events at equal timestamps fire in scheduling order, so a run
// with a fixed seed is fully reproducible.
package sim

import (
	"container/heap"
	"math/rand"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations, in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  func()
	// index in the heap, for cancellation.
	index int
	dead  bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	e *event
}

// Stop cancels the timer. It is a no-op if the event already fired or was
// already stopped. It reports whether the event was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.e == nil || t.e.dead {
		return false
	}
	t.e.dead = true
	return true
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	rng    *rand.Rand
}

// New returns an Engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute time t. Scheduling in the past (or
// present) runs the event at the current time, after already-pending
// events with the same timestamp.
func (e *Engine) At(t Time, fn func()) *Timer {
	if t < e.now {
		t = e.now
	}
	ev := &event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return &Timer{e: ev}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Pending returns the number of scheduled (non-cancelled) events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.events {
		if !ev.dead {
			n++
		}
	}
	return n
}

// step executes the next event. It reports whether an event ran.
func (e *Engine) step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		if ev.dead {
			continue
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (even if the queue drained earlier). Events scheduled during the
// run are honored if they fall within the horizon.
func (e *Engine) RunUntil(t Time) {
	for {
		// Peek.
		var next *event
		for len(e.events) > 0 {
			if e.events[0].dead {
				heap.Pop(&e.events)
				continue
			}
			next = e.events[0]
			break
		}
		if next == nil || next.at > t {
			break
		}
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// Every schedules fn to run now+d, then every d thereafter, until the
// returned Timer is stopped. fn observes the tick time via Engine.Now.
func (e *Engine) Every(d Time, fn func()) *Timer {
	if d <= 0 {
		panic("sim: Every requires positive period")
	}
	t := &Timer{}
	var tick func()
	tick = func() {
		fn()
		if !t.e.dead {
			t.e = e.After(d, tick).e
		}
	}
	t.e = e.After(d, tick).e
	return t
}
