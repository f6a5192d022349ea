// Package faultinject stalls and crashes the stack's parties — a
// fast-path core or the slow path — through the engine's one fault hook
// (fastpath.Engine.SetFaultHook). The product only calls the hook; tests
// and the scenario executor arm faults here.
//
// A stall sleeps inside the hook, so the stalled party keeps holding
// whatever it holds there: a core its run token, the slow path its event
// loop. A panic is raised inside the hook, where a panic in the party's
// own work is already contained. Every armed fault fires once, at its
// party's next pass over its hook point.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fastpath"
)

// Injector holds the faults armed on one engine. An engine has one
// hook, so attach one Injector per engine.
type Injector struct {
	eng   *fastpath.Engine
	armed atomic.Int32 // len(pending): the hook's lock-free fast path
	fired atomic.Uint64

	mu      sync.Mutex
	pending map[point]fault
}

type point struct {
	at   fastpath.FaultPoint
	unit int
}

// fault is a stall of d, or a panic when d is negative.
type fault time.Duration

// Attach installs an Injector as eng's fault hook.
func Attach(eng *fastpath.Engine) *Injector {
	in := &Injector{eng: eng, pending: make(map[point]fault)}
	eng.SetFaultHook(in.hook)
	return in
}

// Fired returns how many armed faults have fired.
func (in *Injector) Fired() uint64 { return in.fired.Load() }

// StallCore wedges core i for d at its next step on its own goroutine:
// it sleeps holding its run token, so its beat stops, producers find the
// token busy and its queues back up.
func (in *Injector) StallCore(i int, d time.Duration) {
	in.arm(fastpath.FaultCoreStep, i, fault(d))
	in.eng.Nudge(i)
}

// PanicCore panics core i at its next step on its own goroutine; the
// engine contains and counts it, and the core's goroutine exits.
func (in *Injector) PanicCore(i int) {
	in.arm(fastpath.FaultCoreStep, i, -1)
	in.eng.Nudge(i)
}

// StallSlowPath wedges the slow path's event loop for d before its next
// control tick: no exceptions drained, no ticks, no heartbeats.
func (in *Injector) StallSlowPath(d time.Duration) {
	in.arm(fastpath.FaultSlowTick, 0, fault(d))
}

// PanicSlowPath panics the slow path's event loop before its next
// control tick; the loop contains it and the instance is down until a
// warm restart.
func (in *Injector) PanicSlowPath() { in.arm(fastpath.FaultSlowTick, 0, -1) }

func (in *Injector) arm(at fastpath.FaultPoint, unit int, f fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := point{at, unit}
	if _, ok := in.pending[p]; !ok {
		in.armed.Add(1)
	}
	in.pending[p] = f
}

func (in *Injector) hook(at fastpath.FaultPoint, unit int) {
	if in.armed.Load() == 0 {
		return
	}
	p := point{at, unit}
	in.mu.Lock()
	f, ok := in.pending[p]
	if ok {
		delete(in.pending, p)
		in.armed.Add(-1)
	}
	in.mu.Unlock()
	if !ok {
		return
	}
	in.fired.Add(1)
	if f < 0 {
		panic("faultinject: injected panic")
	}
	time.Sleep(time.Duration(f))
}
