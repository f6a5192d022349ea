package fastpath

import (
	"runtime"

	"repro/internal/telemetry"
)

// This file implements the data-plane failure domain: each fast-path
// core is a crashable, restartable unit. The slow path already owns the
// repair mechanism — §3.4's core scaling eagerly rewrites the RSS
// redirection table and the per-flow spinlocks make wrong-core packets
// safe — so a core failure costs a re-steer, not an outage:
//
//   - Every run-loop iteration bumps an atomic beat counter (no clock
//     read on the hot path; the slow-path watchdog tracks when the
//     count last changed).
//   - A panic in a core's step, or in the fault hook that test tooling
//     (internal/faultinject) installs to stall or panic a core, is
//     contained and counted by launchCore, never escaping to the process.
//   - When the slow path declares a core dead (MarkCoreFailed), the
//     core's bit enters the RSS exclusion mask and the table is
//     rewritten around it, so neither this re-steer nor any later
//     SetCores/scale event sends a bucket back to it.
//   - DrainFailedCore requeues the packets and transmit requests
//     stranded in the dead core's rings — but only once the goroutine
//     has provably exited, and under the core's run token; a stalled
//     core sleeps holding its token, so it still owns its rings, and its
//     backlog is counted stranded and left to TCP retransmission.
//     Producers step no killed, failed or exited core inline
//     (Engine.mayInline).
//   - ReviveCore relaunches the goroutine; the slow path folds the core
//     back into steering (ClearCoreFailed) after it proves itself with
//     clean heartbeats, the normal scale-up path.

// coresRingKey is the flight-recorder key for data-plane lifecycle
// events that belong to no single flow (core failed/revived).
const coresRingKey = "cores"

// launchCore starts (or restarts) a core's run-loop goroutine. A panic
// inside the loop is contained here: counted, the core marked exited,
// and the process kept alive — the slow-path watchdog turns the silence
// into a failure verdict and re-steers around it.
func (e *Engine) launchCore(c *core) {
	c.exited.Store(false)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				c.stats.Panics.Add(1)
			}
			c.exited.Store(true)
		}()
		e.run(c)
	}()
}

// FaultPoint names a place where the engine calls its fault hook.
type FaultPoint uint8

// The fault hook points; the hook's unit argument says whose.
const (
	// FaultCoreStep: a core's goroutine holds its run token and is about
	// to step (unit: core index). Never inside a producer's inline step.
	FaultCoreStep FaultPoint = iota + 1
	// FaultCorePark: a core found no work and is about to publish its
	// sleep flag (unit: core index).
	FaultCorePark
	// FaultSlowTick: the slow path's event loop is about to run a control
	// tick and read its clock (unit 0).
	FaultSlowTick
)

// SetFaultHook installs h, or removes the hook when h is nil. The
// product only calls the hook; test tooling (internal/faultinject)
// installs one to stall a party by sleeping in it, or to crash one by
// panicking there, where a panic in the party's own work is contained.
func (e *Engine) SetFaultHook(h func(at FaultPoint, unit int)) {
	if h == nil {
		e.fault.Store(nil)
		return
	}
	e.fault.Store(&h)
}

// Fault calls the fault hook, if one is installed, at point at.
func (e *Engine) Fault(at FaultPoint, unit int) {
	if h := e.fault.Load(); h != nil {
		(*h)(at, unit)
	}
}

// KillCore makes core i's goroutine exit at its next loop check, as an
// uncaught crash would — no drain, no goodbye. Queues keep their
// contents for DrainFailedCore. A panic in an inline step ends here.
func (e *Engine) KillCore(i int) {
	if i < 0 || i >= len(e.cores) {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.cores[i]
	if !c.killed.Swap(true) {
		close(c.kill)
	}
}

// CoreBeat returns core i's loop-iteration counter — the heartbeat the
// slow-path watchdog samples for progress.
func (e *Engine) CoreBeat(i int) uint64 { return e.cores[i].beat.Load() }

// CoreExited reports whether core i's goroutine has provably exited
// (crash, contained panic, or engine stop). Only then may the
// core-failure drain consume the core's rings.
func (e *Engine) CoreExited(i int) bool { return e.cores[i].exited.Load() }

// CoreFailed reports whether the slow path has marked core i failed.
func (e *Engine) CoreFailed(i int) bool { return e.cores[i].failed.Load() }

// CorePanics returns the count of contained panics on core i.
func (e *Engine) CorePanics(i int) uint64 { return e.cores[i].stats.Panics.Load() }

// MarkCoreFailed is the slow path's failure verdict: exclude core i
// from RSS steering and rewrite the table around it. Idempotent;
// returns false if the core was already marked. The rewrite reuses the
// scale-event path (eager RSS update), so in-flight packets may still
// land on the dead core — they sit in its ring until DrainFailedCore or
// TCP retransmission recovers them.
func (e *Engine) MarkCoreFailed(i int) bool {
	if i < 0 || i >= len(e.cores) {
		return false
	}
	c := e.cores[i]
	if c.failed.Swap(true) {
		return false
	}
	e.RSS.SetFailed(i, true)
	e.RSS.SetCores(e.RSS.Cores())
	for j := range e.cores {
		e.wakeCore(j)
	}
	if telem := e.telem; telem != nil {
		telem.Recorder.Ring(coresRingKey).Record(telemetry.FECoreFailed, 0, 0, 0, uint64(i))
	}
	return true
}

// ClearCoreFailed folds a revived core back into steering: clear its
// exclusion bit and rewrite the table so it receives buckets again (the
// normal scale-up path). The slow path calls this only after the core
// has proven itself with clean heartbeats.
func (e *Engine) ClearCoreFailed(i int) {
	if i < 0 || i >= len(e.cores) {
		return
	}
	c := e.cores[i]
	if !c.failed.Swap(false) {
		return
	}
	e.RSS.SetFailed(i, false)
	e.RSS.SetCores(e.RSS.Cores())
	for j := range e.cores {
		e.wakeCore(j)
	}
	if telem := e.telem; telem != nil {
		telem.Recorder.Ring(coresRingKey).Record(telemetry.FECoreRevived, 0, 0, 0, uint64(i))
	}
}

// ReviveCore relaunches core i's goroutine after it exited (kill,
// contained panic). Returns false if the goroutine is still running (a
// stalled core cannot be revived — its goroutine still owns the rings)
// or the engine is stopped. Steering is NOT restored here; the slow
// path re-admits the core via ClearCoreFailed once heartbeats flow.
func (e *Engine) ReviveCore(i int) bool {
	if i < 0 || i >= len(e.cores) || e.stopped.Load() {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.cores[i]
	if !c.exited.Load() {
		return false
	}
	// Fresh kill channel for the new incarnation; the old goroutine
	// captured the previous one at entry, so closing history is inert.
	c.kill = make(chan struct{})
	c.killed.Store(false)
	e.launchCore(c)
	return true
}

// DrainFailedCore recovers the work stranded in a failed core's queues.
// If the goroutine has exited, its rings are consumed here once the run
// token is free (a producer may be finishing an inline step): received
// packets are re-Input (RSS now steers them to a survivor) and transmit
// requests — the applications' and the slow path's alike — re-queued on
// their flows' new cores. If the goroutine is merely stalled it still
// owns the rings; the backlog is counted stranded — those flows recover
// via normal RTO/fast-rexmit once migration kicks them. Returns how
// many items were requeued.
func (e *Engine) DrainFailedCore(i int) int {
	if i < 0 || i >= len(e.cores) {
		return 0
	}
	c := e.cores[i]
	if !c.exited.Load() {
		c.stats.Stranded.Add(uint64(c.rxRing.Len() + c.kicks.Len()))
		return 0
	}
	for !c.token.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
	defer c.token.Store(false)
	requeued := 0
	for {
		pkt, ok := c.rxRing.Dequeue()
		if !ok {
			break
		}
		e.Input(pkt)
		requeued++
	}
	// Bounded by the snapshot: a request naming no flow, or one whose
	// flow still steers here (every core failed), goes back on this ring.
	for n := c.kicks.Len(); n > 0; n-- {
		cmd, _ := c.kicks.Dequeue()
		if to := e.queueTx(cmd); to != nil {
			e.notify(to)
		}
		requeued++
	}
	return requeued
}

// CoreFaultStats summarizes the data-plane failure domain for the
// facade's typed stats.
type CoreFaultStats struct {
	Failed int    // cores currently excluded from steering
	Exited int    // core goroutines currently not running
	Panics uint64 // contained run-loop panics, all cores
}

// CoreFaults returns the engine-side failure-domain counters.
func (e *Engine) CoreFaults() CoreFaultStats {
	var st CoreFaultStats
	for _, c := range e.cores {
		if c.failed.Load() {
			st.Failed++
		}
		if c.exited.Load() {
			st.Exited++
		}
		st.Panics += c.stats.Panics.Load()
	}
	return st
}
