package slowpath

import (
	"fmt"
	"math"
	"time"

	"repro/internal/congestion"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// This file implements the per-interval control tick (§3.2) over an
// active set, so the tick costs O(flows with control work) rather than
// O(flows):
//
//   - Every cc entry is in exactly one of two places: the dense active
//     slice the tick walks, or the parked FIFO that no tick touches — no
//     lock, no map walk, no copy.
//   - tickFlow parks an entry once the flow has been quiescent
//     (flowstate.Flow.Quiescent, no keepalive train running) for
//     parkQuietTicks consecutive visits that each left the controller's
//     rate exactly where it was: one more tick would be a no-op. Parking
//     sets Flow.Parked under the flow spinlock.
//   - Whoever next gives the flow work clears the flag under that same
//     lock and queues the flow on the engine's activation ring
//     (fastpath.Engine.ActivateFlow: transmit's idle→busy edge); the tick
//     drains the ring first thing. Work the slow path itself originates
//     (Close, core-failure migration, warm-restart readoption) unparks
//     directly. A close in progress is work until the flow is gone, so a
//     closing flow never parks: its timers run from its own visit.
//   - Parked entries queue in park order, and KeepaliveTime is one
//     constant, so the FIFO head is the next keepalive deadline: the
//     tick pops expired heads only, re-reads LastTouched, and either
//     requeues the entry or unparks it to run its probe train.
//
// A resumed flow gets the rate it would have had under an every-tick
// sweep: it parked at the controller's fixed point, feedback is averaged
// over the time actually elapsed since the entry's last visit, and the
// measured-rate EWMA decay of the skipped ticks is applied in closed
// form on resume.

const (
	// parkQuietTicks is how many consecutive no-work, no-rate-change
	// visits park a flow. Long enough that per-interval state inside a
	// controller (TIMELY's 5-interval hyper-active-increase counter) has
	// saturated, short enough that a silent flow costs ~10 visits.
	parkQuietTicks = 8

	// txEwmaKeep is the weight the measured-rate EWMA gives its history
	// per control interval.
	txEwmaKeep = 0.7
)

// flowSample is what one visit reads from fast-path flow state under the
// flow spinlock.
type flowSample struct {
	ackB, ecnB       uint32
	frex             uint8
	rtt              int64  // ns
	una, outstanding uint32 // oldest unacked sequence; bytes in flight
	pending          int    // bytes buffered but unsent
	ack              uint32
	window           uint16
	finSent, aborted bool
	closeReq         bool // the app asked to close: closeTick's work
	finAcked         bool
	finRecv          bool
	quiescent        bool // Flow.Quiescent, before the counters were taken
}

// clearStall resets the no-progress clock RTO detection runs on.
func (e *ccEntry) clearStall() { e.stallTicks, e.stalledFor = 0, 0 }

// later queues a teardown the tick decided on; it runs once the tick
// has released mu (teardown re-takes it).
func (s *Slowpath) later(teardown func()) { s.ended = append(s.ended, teardown) }

// doom aborts f after the tick: a retry or probe budget ran out.
func (s *Slowpath) doom(f *flowstate.Flow, cause uint32) { s.later(func() { s.abortFlow(f, cause) }) }

// adoptFlow creates f's control entry on the active list. Caller holds
// mu.
func (s *Slowpath) adoptFlow(f *flowstate.Flow, ctrl congestion.RateController, una uint32, now int64) *ccEntry {
	e := &ccEntry{flow: f, ctrl: ctrl, lastUna: una, lastRate: ctrl.Rate()}
	s.cc[f] = e
	s.pushActive(e, now)
	return e
}

// dropEntry forgets f's control entry, wherever it is, releasing its FIN
// timer's pool charge. Caller holds mu.
func (s *Slowpath) dropEntry(f *flowstate.Flow) {
	e := s.cc[f]
	if e == nil {
		return
	}
	delete(s.cc, f)
	if e.fin.armed() {
		s.charge(resource.PoolTimers, -1)
	}
	if e.idx >= 0 {
		s.popActive(e)
	} else {
		s.unlinkParked(e)
	}
}

// pushActive appends e to the active list. Its first visit averages
// feedback over one interval — what an every-tick sweep would have done
// at the first tick after the flow appeared or woke.
func (s *Slowpath) pushActive(e *ccEntry, now int64) {
	e.idx = len(s.active)
	s.active = append(s.active, e)
	e.lastTick = now - s.cfg.ControlInterval.Nanoseconds()
	e.quiet = 0
}

// popActive swap-removes e from the active list.
func (s *Slowpath) popActive(e *ccEntry) {
	last := len(s.active) - 1
	moved := s.active[last]
	s.active[e.idx] = moved
	moved.idx = e.idx
	s.active[last] = nil
	s.active = s.active[:last]
	e.idx = -1
}

// appendParked queues e at the FIFO tail. touched is the flow's
// last-activity stamp; clamping it up to the tail's base keeps bases —
// and so keepalive deadlines — non-decreasing along the FIFO, at the
// price of examining e no earlier than the entry parked just before it.
func (s *Slowpath) appendParked(e *ccEntry, touched int64) {
	e.kaBase = touched
	e.prev, e.next = s.parkedTail, nil
	if t := s.parkedTail; t != nil {
		if t.kaBase > touched {
			e.kaBase = t.kaBase
		}
		t.next = e
	} else {
		s.parkedHead = e
	}
	s.parkedTail = e
	s.parkedN++
}

func (s *Slowpath) unlinkParked(e *ccEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.parkedHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.parkedTail = e.prev
	}
	e.prev, e.next = nil, nil
	s.parkedN--
}

// park moves a quiescent entry off the tick. The flag goes up under the
// flow spinlock, after re-checking there that the flow is still
// quiescent: from that point any new work finds the flag and activates.
// Caller holds mu.
func (s *Slowpath) park(e *ccEntry) {
	f := e.flow
	f.Lock()
	ok := f.Quiescent()
	if ok {
		f.Parked = true
	}
	f.Unlock()
	if !ok {
		e.quiet = 0
		return
	}
	s.popActive(e)
	s.appendParked(e, f.LastTouched())
}

// unpark puts a parked entry back on the tick, catching its measured
// rate up on the intervals it sat out: each would have folded a zero
// sample into the EWMA. (The controller itself needs no catching up —
// it parked at its fixed point.) The flag is cleared here too, so the
// direct callers and a stale ring entry are both safe. Caller holds mu.
func (s *Slowpath) unpark(e *ccEntry, now int64) {
	f := e.flow
	f.Lock()
	f.Parked = false
	f.Unlock()
	s.unlinkParked(e)
	if skipped := (now-e.lastTick)/s.cfg.ControlInterval.Nanoseconds() - 1; skipped > 0 {
		e.txEwma *= math.Pow(txEwmaKeep, float64(skipped))
	}
	s.pushActive(e, now)
	s.ctr.FlowActivations.Add(1)
}

// drainActivations unparks every flow the fast path queued
// since the last drain. A full ring refused some pushes — those flows
// kept their flag — so after an overflow the parked list itself is
// searched for flows with work. Caller holds mu.
func (s *Slowpath) drainActivations(now int64) {
	for {
		f, ok := s.eng.TakeActivation()
		if !ok {
			break
		}
		if e := s.cc[f]; e != nil && e.idx < 0 {
			s.unpark(e, now)
		}
	}
	if !s.eng.TakeActivationOverflow() {
		return
	}
	for e := s.parkedHead; e != nil; {
		next := e.next
		f := e.flow
		f.Lock()
		work := !f.Quiescent()
		f.Unlock()
		if work {
			s.unpark(e, now)
		}
		e = next
	}
}

// keepaliveDue examines the parked FIFO's expired heads — O(expired),
// and nothing at all with keepalives off. A flow that has heard from its
// peer since parking goes to the back with a fresh deadline; one that
// has been silent for KeepaliveTime is unparked, and its visit this same
// tick starts the probe train. Caller holds mu.
func (s *Slowpath) keepaliveDue(now int64) {
	ka := s.cfg.KeepaliveTime.Nanoseconds()
	if ka <= 0 {
		return
	}
	for e := s.parkedHead; e != nil && now-e.kaBase >= ka; e = s.parkedHead {
		touched := e.flow.LastTouched()
		if now-touched >= ka {
			s.unpark(e, now)
			continue
		}
		s.unlinkParked(e)
		s.appendParked(e, touched)
	}
}

// controlTick is the per-interval congestion/timeout pass (§3.2) over
// the active set: read and reset the fast path's feedback counters, run
// the congestion policy, write the new rate, restart stalled flows,
// supervise closes, and park flows that have nothing left to control. now
// is the engine clock.
func (s *Slowpath) controlTick(now int64) {
	s.mu.Lock()
	s.drainActivations(now)
	s.keepaliveDue(now)
	for i := 0; i < len(s.active); {
		e := s.active[i]
		s.tickFlow(e, now)
		if i < len(s.active) && s.active[i] == e {
			i++ // else e was parked and another entry took its slot
		}
	}
	ended := s.ended
	s.ended = s.ended[:0]
	s.mu.Unlock()
	for i, teardown := range ended {
		teardown()
		ended[i] = nil
	}
}

// tickFlow is one active entry's visit. Caller holds mu.
func (s *Slowpath) tickFlow(e *ccEntry, now int64) {
	dt := now - e.lastTick
	if dt < s.cfg.ControlInterval.Nanoseconds()/2 {
		// The ticker fired twice back to back (the loop was held up):
		// a sliver of an interval holds too few packets to measure a
		// rate from. Let the feedback accumulate until the next tick.
		return
	}
	e.lastTick = now

	f := e.flow
	var fs flowSample
	f.Lock()
	fs.quiescent = f.Quiescent()
	fs.ackB, fs.ecnB, fs.frex = f.TakeCounters()
	fs.rtt = int64(f.RTTEst) * 1000
	fs.una = f.SeqNo - f.TxSent
	fs.outstanding = f.TxSent
	fs.pending = f.TxPending()
	fs.ack, fs.window = f.AckNo, f.Window
	fs.finSent, fs.aborted = f.FinSent, f.Aborted
	fs.closeReq, fs.finAcked, fs.finRecv = f.CloseRequested, f.FinAcked, f.FinReceived
	f.Unlock()

	if fs.closeReq {
		s.closeTick(e, now, &fs)
	}

	// Zero-window stall: the peer's receiver is full, not the network —
	// this is flow control, so the persist timer replaces the
	// retransmission timer (retransmitting into a closed window would
	// only burn the abort budget). Probes are 1 byte with exponential
	// backoff; an unanswered budget declares the peer dead. No CC
	// feedback to process while stalled.
	if fs.window == 0 && !fs.finSent && !fs.aborted && (fs.pending > 0 || fs.outstanding > 0) {
		e.clearStall()
		e.consecTimeouts = 0
		e.lastUna = fs.una
		e.quiet = 0
		s.persistTick(f, e, now)
		return
	}
	e.persist = retry{}

	// Keepalive: an established flow with nothing in flight and nothing
	// pending that has heard nothing from the peer for KeepaliveTime
	// gets liveness probes (opt-in; see Config).
	if !s.keepaliveTick(f, e, now, &fs) {
		return
	}
	timeouts, alive := s.rtoTick(e, &fs, dt)
	if !alive {
		return
	}
	prev := e.ctrl.Rate()
	rate := s.ccUpdate(e, &fs, timeouts, dt)
	if fs.pending > 0 {
		// Pending data may be sendable at the new rate.
		s.eng.KickFlow(f)
	}

	// Park once another visit would change nothing: no work in flow
	// state, no probe train, and a controller that has stopped moving.
	if !fs.quiescent || e.kaNext != 0 || rate != prev {
		e.quiet = 0
		return
	}
	if e.quiet++; e.quiet >= parkQuietTicks {
		s.park(e)
	}
}

// rtoTick detects a retransmission timeout: unacknowledged data with no
// progress for stallIntervals control intervals. The wait must also
// cover several RTTs and several packet intervals at the current rate —
// at low rates whole control intervals legitimately pass without an
// ack, and declaring those stalls would collapse the rate in a
// self-sustaining cycle. It returns the timeouts to report to the
// controller, and false if the retry budget ran out and the flow was
// doomed.
func (s *Slowpath) rtoTick(e *ccEntry, fs *flowSample, dt int64) (timeouts uint32, alive bool) {
	if fs.una != e.lastUna || fs.ackB != 0 || (fs.outstanding == 0 && fs.pending <= 0) {
		e.clearStall()
		e.consecTimeouts = 0
		e.lastUna = fs.una
		return 0, true
	}
	if fs.outstanding == 0 {
		// Unsent bytes and nothing in flight: fresh data the fast path has
		// not picked up yet, or a go-back-N rewind below still waiting for
		// rate tokens (at the post-timeout floor rate one segment is ~12ms
		// of tokens). Not a stall — and not progress: counting it as such
		// reset the backoff between every two timeouts, so a dead peer was
		// retried without ever exhausting the budget.
		return 0, true
	}
	// A stalled visit stands for one interval, or for the time actually
	// elapsed if that is longer: under CPU contention the ticker drops
	// ticks, and a dead peer must still be given up on in bounded wall
	// time.
	e.stallTicks++
	if iv := s.cfg.ControlInterval; time.Duration(dt) < iv {
		e.stalledFor += iv
	} else {
		e.stalledFor += time.Duration(dt)
	}
	needWait := time.Duration(stallIntervals) * s.cfg.ControlInterval
	if w := 8 * time.Duration(fs.rtt); w > needWait {
		needWait = w
	}
	if r := e.ctrl.Rate(); r > 0 {
		if w := time.Duration(4 * float64(protocol.DefaultMSS) / r * 1e9); w > needWait {
			needWait = w
		}
	}
	if needWait < 10*time.Millisecond {
		needWait = 10 * time.Millisecond
	}
	// Exponential backoff: each consecutive unproductive timeout doubles
	// the wait before the next one (capped), so a dead peer costs a
	// bounded, geometric series of retransmissions.
	bo := e.consecTimeouts
	if bo > 6 {
		bo = 6
	}
	needWait <<= uint(bo)
	if e.stallTicks < stallIntervals || e.stalledFor < needWait {
		return 0, true
	}
	e.clearStall()
	e.consecTimeouts++
	f := e.flow
	if e.consecTimeouts > s.cfg.MaxRetransmits {
		// Retry budget exhausted: the peer is unreachable or dead. Abort
		// instead of retransmitting forever.
		s.doom(f, 0)
		return 0, false
	}
	s.ctr.Timeouts.Add(1)
	recordFlow(f, telemetry.FERTOBackoff, fs.una, 0, 0, uint64(needWait))
	f.Lock()
	f.SeqNo -= f.TxSent // reset as if unsent
	f.TxSent = 0
	f.Unlock()
	s.eng.KickFlow(f)
	return 1, true
}

// ccUpdate runs the congestion policy on one visit's feedback and writes
// the new rate to the flow's bucket. dt is the time the feedback
// accumulated over.
func (s *Slowpath) ccUpdate(e *ccEntry, fs *flowSample, timeouts uint32, dt int64) float64 {
	// Smooth the measured rate across intervals: at fine τ a single
	// interval holds few packets, and the controller's send-rate cap
	// must not clamp against quantization noise.
	inst := float64(fs.ackB) / (float64(dt) / 1e9)
	if e.txEwma == 0 {
		e.txEwma = inst
	} else {
		e.txEwma = txEwmaKeep*e.txEwma + (1-txEwmaKeep)*inst
	}
	rate := e.ctrl.Update(congestion.Feedback{
		AckedBytes: uint64(fs.ackB),
		EcnBytes:   uint64(fs.ecnB),
		Frexmits:   uint32(fs.frex),
		Timeouts:   timeouts,
		RTT:        fs.rtt,
		TxRate:     e.txEwma,
	})
	f := e.flow
	f.RateBucket.SetRate(rate)
	// Trace only significant rate moves (≥25% relative, or from/to
	// zero): the controller nudges the rate every interval, and
	// recording each tick would wash real lifecycle events out of the
	// bounded flight ring.
	if d := math.Abs(rate - e.lastRate); d != 0 && (e.lastRate == 0 || d >= 0.25*e.lastRate) {
		recordFlow(f, telemetry.FERateChange, 0, 0, 0, uint64(rate))
		e.lastRate = rate
	}
	return rate
}

// ControlSet returns how many flows are on the control tick and how
// many are parked off it.
func (s *Slowpath) ControlSet() (active, parked int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active), s.parkedN
}

// CheckControlInvariant verifies the control set against the flow table
// and flow state, returning the first violation found:
//
//   - every flow in the table has a control entry, and every entry is in
//     exactly one of {active list, parked FIFO}; a parked entry whose
//     flow's flag is already clear is in the activation ring;
//   - an active entry's flow is not flagged Parked;
//   - a flagged flow holds no control work (flowstate.Flow.Quiescent) —
//     in particular no close in progress, which keeps a closing flow on
//     the active list;
//   - a closing flow's FIN is out with its timer armed, or waits behind
//     bytes still in the transmit buffer;
//   - the governor's timer pool holds exactly the armed FIN timers.
//
// It is meant for tests and the scenario executor's assertion points,
// and is safe against a running stack. Two conditions are asynchronous by
// construction — the application appends bytes to a parked flow's
// transmit buffer before the fast path sees the TX request and activates
// it, and a closing flow's buffer drains between the ticks that would
// send its FIN — so a flow found in either state is re-examined for a
// grace period before it is reported.
func (s *Slowpath) CheckControlInvariant() error {
	var flows []*flowstate.Flow
	s.eng.Table.ForEach(func(f *flowstate.Flow) { flows = append(flows, f) })
	s.mu.Lock()
	suspects, err := s.checkControlSet(flows)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	for _, f := range suspects {
		deadline := time.Now().Add(200 * time.Millisecond)
		for {
			f.Lock()
			why := unattended(f)
			f.Unlock()
			if why == "" || f.Retired() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("flow %v: %s", f.Key(), why)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// unattended describes control work f holds that nothing is about to act
// on, or returns "": a parked flow's work, or a close whose FIN is due —
// nothing left to send — but not out. Caller holds the flow lock.
func unattended(f *flowstate.Flow) string {
	switch {
	case f.Parked && !f.Quiescent():
		return fmt.Sprintf("parked flow holds control work: TxSent=%d pending=%d window=%d close=%v fin=%v/%v",
			f.TxSent, f.TxPending(), f.Window, f.CloseRequested, f.FinSent, f.FinAcked)
	case f.CloseRequested && !f.FinSent && !f.Aborted && f.TxBuf.Used() == 0:
		return "close requested with nothing left to send, but no FIN sent"
	}
	return ""
}

// checkControlSet is CheckControlInvariant's structural half. It returns
// the flows found unattended, for the caller to re-examine. Caller holds
// mu.
func (s *Slowpath) checkControlSet(tableFlows []*flowstate.Flow) (suspects []*flowstate.Flow, err error) {
	for _, f := range tableFlows {
		if s.cc[f] == nil && s.eng.Table.Lookup(f.Key()) == f {
			return nil, fmt.Errorf("flow %v is in the table with no control entry", f.Key())
		}
	}
	for i, e := range s.active {
		if e.idx != i || s.cc[e.flow] != e {
			return nil, fmt.Errorf("active[%d] (%v): idx %d, mapped %v", i, e.flow.Key(), e.idx, s.cc[e.flow] == e)
		}
	}
	parked := 0
	for e := s.parkedHead; e != nil; e = e.next {
		if e.idx >= 0 || s.cc[e.flow] != e {
			return nil, fmt.Errorf("parked %v: idx %d, mapped %v", e.flow.Key(), e.idx, s.cc[e.flow] == e)
		}
		if e.next == nil && e != s.parkedTail {
			return nil, fmt.Errorf("parked FIFO tail is not its last entry")
		}
		if e.next != nil && e.next.kaBase < e.kaBase {
			return nil, fmt.Errorf("parked FIFO deadlines out of order at %v", e.flow.Key())
		}
		parked++
	}
	if parked != s.parkedN || len(s.active)+parked != len(s.cc) {
		return nil, fmt.Errorf("control set: %d active + %d parked (count %d) != %d entries", len(s.active), parked, s.parkedN, len(s.cc))
	}
	inRing, armed := 0, int64(0)
	for f, e := range s.cc {
		f.Lock()
		flagged, why := f.Parked, unattended(f)
		finUnwatched := f.FinSent && !f.Aborted && !e.fin.armed()
		f.Unlock()
		if e.fin.armed() {
			armed++
		}
		switch {
		case e.idx >= 0 && flagged:
			return nil, fmt.Errorf("flow %v is flagged parked but on the active list", f.Key())
		case finUnwatched:
			return nil, fmt.Errorf("flow %v sent its FIN with no FIN timer armed", f.Key())
		case e.idx < 0 && !flagged:
			inRing++ // the push precedes the flag clear, and mu keeps the drain out
		}
		if why != "" {
			suspects = append(suspects, f)
		}
	}
	if ring := s.eng.ActivationsLen(); inRing > ring {
		return nil, fmt.Errorf("%d parked entries have a cleared flag but the activation ring holds %d", inRing, ring)
	}
	if g := s.cfg.Gov; g != nil && g.Used(resource.PoolTimers) != armed {
		return nil, fmt.Errorf("timers pool holds %d, but %d FIN timers are armed", g.Used(resource.PoolTimers), armed)
	}
	return suspects, nil
}
