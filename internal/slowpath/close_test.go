package slowpath

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/shmring"
)

// The close lifecycle on a slow path that is never started: every timer
// runs from the flow's control entry on the tick, so these tests step the
// clock instead of sleeping through it.

func isFin(p *protocol.Packet) bool { return p.Flags.Has(protocol.FlagFIN) }
func isRst(p *protocol.Packet) bool { return p.Flags.Has(protocol.FlagRST) }

// sendTimes runs the clock for d and returns when, relative to its start,
// the rig transmitted segments that match.
func sendTimes(clk *tickClock, nic *wireNIC, d time.Duration, match func(*protocol.Packet) bool) []time.Duration {
	start := clk.now
	var at []time.Duration
	clk.run(d, func() bool {
		for range nic.take(match) {
			at = append(at, time.Duration(clk.now-start))
		}
		return false
	})
	return at
}

// queue appends n unsent bytes to f's transmit buffer, as a Send does.
func queue(f *flowstate.Flow, n int) {
	f.Lock()
	f.TxBuf.Write(make([]byte, n))
	f.Unlock()
}

// sendAndAck does what the fast path and the peer would: transmit every
// queued byte and acknowledge it.
func sendAndAck(f *flowstate.Flow) {
	f.Lock()
	n := f.TxBuf.Used()
	f.TxBuf.Release(n)
	f.SeqNo += uint32(n)
	f.Unlock()
}

// ackFin does what the fast path does when the peer acknowledges our FIN.
func ackFin(f *flowstate.Flow) {
	f.Lock()
	f.FinAcked = true
	f.Unlock()
}

// TestCloseWaitsForDrainThenFinWait2Expires: a close with bytes still
// queued sends no FIN — and the flow never parks — until the buffer
// drains; the FIN then leaves from the next tick, holds one timer-pool
// charge, and once acknowledged the flow waits FinWait2Timeout for the
// peer's FIN before a quiet teardown.
func TestCloseWaitsForDrainThenFinWait2Expires(t *testing.T) {
	const fw2 = 200 * time.Millisecond
	g := resource.New(resource.Limits{})
	eng, sp, nic := newWireRig(Config{Gov: g, FinWait2Timeout: fw2})
	f := rigFlow(eng, sp, 1, eng.NowNanos())
	queue(f, 100)
	clk := &tickClock{sp: sp, now: eng.NowNanos()}

	sp.Close(f)
	if n := len(sendTimes(clk, nic, 50*time.Millisecond, isFin)); n != 0 {
		t.Fatalf("%d FINs sent ahead of queued bytes", n)
	}
	if a, p := sp.ControlSet(); a != 1 || p != 0 {
		t.Fatalf("closing flow: %d active, %d parked", a, p)
	}
	mustInvariant(t, sp)

	sendAndAck(f)
	fins := sendTimes(clk, nic, time.Millisecond, isFin)
	if len(fins) != 1 || !f.FinSent {
		t.Fatalf("%d FINs on the tick after the drain", len(fins))
	}
	if got := g.Used(resource.PoolTimers); got != 1 {
		t.Fatalf("timers pool = %d with a FIN in flight, want 1", got)
	}

	ackFin(f)
	clk.run(time.Millisecond, nil)
	if n := sp.FinWait2Count(); n != 1 {
		t.Fatalf("FinWait2Count = %d, want 1", n)
	}
	mustInvariant(t, sp)
	gone := func() bool { return eng.Table.Len() == 0 }
	if clk.run(fw2-2*time.Millisecond, gone) {
		t.Fatal("FIN_WAIT_2 reclaimed before FinWait2Timeout")
	}
	if !clk.run(3*time.Millisecond, gone) {
		t.Fatal("FIN_WAIT_2 flow not reclaimed after FinWait2Timeout")
	}
	if c := sp.Counters(); c.FinWait2Timeouts != 1 {
		t.Fatalf("FinWait2Timeouts = %d, want 1", c.FinWait2Timeouts)
	}
	if sp.FinWait2Count() != 0 || sp.TimeWaitCount() != 0 {
		t.Fatal("a timed-out FIN_WAIT_2 left a gauge up or entered TIME_WAIT")
	}
	if n := len(nic.take(isRst)); n != 0 {
		t.Fatal("RST on a quiet FIN_WAIT_2 reclaim")
	}
	if got := g.Used(resource.PoolTimers); got != 0 {
		t.Fatalf("timers pool = %d after the reclaim, want 0", got)
	}
}

// TestCloseDrainBoundThenTimeWaitExpires: bytes that never drain hold the
// FIN back for closeDrainLimit and no longer; after the exchange the
// active closer's tuple sits out TimeWaitDuration in quarantine.
func TestCloseDrainBoundThenTimeWaitExpires(t *testing.T) {
	const tw = 100 * time.Millisecond
	g := resource.New(resource.Limits{})
	eng, sp, nic := newWireRig(Config{Gov: g, TimeWaitDuration: tw})
	f := rigFlow(eng, sp, 1, eng.NowNanos())
	queue(f, 100) // the fast path never runs: nothing drains
	sp.Close(f)
	clk := &tickClock{sp: sp, now: sp.cc[f].closeAt}
	if fins := sendTimes(clk, nic, closeDrainLimit, isFin); len(fins) != 1 || fins[0] != closeDrainLimit {
		t.Fatalf("FINs at %v, want one at %v", fins, closeDrainLimit)
	}

	ackFin(f)
	clk.run(time.Millisecond, nil)
	f.Lock()
	peerFin := peerSegment(f, protocol.FlagFIN|protocol.FlagACK, f.AckNo, f.SeqNo+1)
	f.Unlock()
	clk.now = eng.NowNanos() // the quarantine is stamped on the engine clock
	sp.handleException(peerFin)
	if sp.TimeWaitCount() != 1 || eng.Table.Len() != 0 {
		t.Fatal("the active closer did not enter TIME_WAIT")
	}
	if g.Used(resource.PoolTimeWait) != 1 || g.Used(resource.PoolTimers) != 0 {
		t.Fatalf("pools: time_wait %d timers %d, want 1 and 0", g.Used(resource.PoolTimeWait), g.Used(resource.PoolTimers))
	}
	expired := func() bool { return sp.TimeWaitCount() == 0 }
	if clk.run(tw-time.Millisecond, expired) {
		t.Fatal("quarantine expired early")
	}
	if !clk.run(2*time.Millisecond, expired) || g.Used(resource.PoolTimeWait) != 0 {
		t.Fatal("quarantine did not expire with its charge")
	}
}

// TestFinBackoffExhaustsBudget: an unanswered FIN is retransmitted with
// doubling intervals from its 20ms floor, and the exhausted budget aborts
// the flow with a RST and returns the timer's charge.
func TestFinBackoffExhaustsBudget(t *testing.T) {
	g := resource.New(resource.Limits{})
	eng, sp, nic := newWireRig(Config{Gov: g, MaxRetransmits: 2})
	f := rigFlow(eng, sp, 1, eng.NowNanos())
	sp.Close(f)
	if n := len(nic.take(isFin)); n != 1 {
		t.Fatalf("Close with nothing queued sent %d FINs, want 1", n)
	}
	clk := &tickClock{sp: sp, now: sp.cc[f].closeAt}
	rexmits := sendTimes(clk, nic, 200*time.Millisecond, isFin)
	if want := []time.Duration{20 * time.Millisecond, 60 * time.Millisecond}; !reflect.DeepEqual(rexmits, want) {
		t.Fatalf("FIN retransmissions at %v, want %v", rexmits, want)
	}
	if eng.Table.Len() != 0 || sp.Counters().Aborts != 1 {
		t.Fatal("exhausted FIN budget did not abort the flow")
	}
	if ev := nextEvent(t, eng); ev.Kind != fastpath.EvAborted {
		t.Fatalf("event = %+v, want EvAborted", ev)
	}
	if g.Used(resource.PoolTimers) != 0 {
		t.Fatalf("timers pool = %d after the abort, want 0", g.Used(resource.PoolTimers))
	}
}

// TestPersistBackoff: a zero-window stall arms the persist timer on its
// first visit and probes at doubling intervals; the unanswered budget
// declares the peer dead.
func TestPersistBackoff(t *testing.T) {
	eng, sp, nic := newWireRig(Config{PersistRTO: 10 * time.Millisecond, MaxPersistProbes: 4})
	f := rigFlow(eng, sp, 1, eng.NowNanos())
	queue(f, 100)
	f.Window = 0
	clk := &tickClock{sp: sp, now: eng.NowNanos()}
	probes := sendTimes(clk, nic, time.Second, func(p *protocol.Packet) bool { return p.DataLen() == 1 })
	// Armed at 1ms; probes 10, 20, 40 and 80ms apart; dead 160ms later.
	want := []time.Duration{11 * time.Millisecond, 31 * time.Millisecond, 71 * time.Millisecond, 151 * time.Millisecond}
	if !reflect.DeepEqual(probes, want) {
		t.Fatalf("persist probes at %v, want %v", probes, want)
	}
	if c := sp.Counters(); c.PeerDeadZeroWindow != 1 || eng.Table.Len() != 0 {
		t.Fatalf("PeerDeadZeroWindow = %d, %d flows left", c.PeerDeadZeroWindow, eng.Table.Len())
	}
}

// TestFinForUnknownTupleDrawsReset: a FIN that matches no flow and no
// TIME_WAIT entry — the close of a connection this side refused, or
// reclaimed — is answered with a reset at the sequence it acknowledges,
// so the closing peer tears down at once instead of retransmitting its
// FIN through the whole budget.
func TestFinForUnknownTupleDrawsReset(t *testing.T) {
	_, sp, nic := newWireRig(Config{})
	fin := ghostSyn(4002, 700)
	fin.Flags, fin.Ack = protocol.FlagFIN|protocol.FlagACK, 9000
	sp.handleException(fin)
	rsts := nic.take(isRst)
	if len(rsts) != 1 || rsts[0].Seq != 9000 || rsts[0].DstPort != 4002 {
		t.Fatalf("reply to a stray FIN: %v", rsts)
	}
	if sp.Counters().StrayRsts != 1 {
		t.Fatal("stray reset not counted")
	}
}

// TestControlInvariantCloseHalf: the invariant holds through a close and
// names each way one can go wrong — a FIN due but never sent, a FIN out
// with no timer, a timer pool that disagrees with the armed timers, and a
// closing flow parked off the tick.
func TestControlInvariantCloseHalf(t *testing.T) {
	g := resource.New(resource.Limits{})
	eng, sp, _ := newWireRig(Config{Gov: g})
	f := rigFlow(eng, sp, 1, eng.NowNanos())
	queue(f, 100)
	sp.Close(f)
	mustInvariant(t, sp) // the FIN waits behind queued bytes

	want := func(substr string) {
		t.Helper()
		if err := sp.CheckControlInvariant(); err == nil || !strings.Contains(err.Error(), substr) {
			t.Fatalf("invariant = %v, want %q", err, substr)
		}
	}
	sendAndAck(f) // drained, and no tick runs to send the FIN
	want("no FIN sent")
	clk := &tickClock{sp: sp, now: eng.NowNanos()}
	clk.run(time.Millisecond, nil)
	mustInvariant(t, sp)

	e := sp.cc[f]
	fin := e.fin
	e.fin = retry{}
	want("no FIN timer armed")
	e.fin = fin
	g.Charge(resource.PoolTimers, 1)
	want("timers pool holds 2, but 1 FIN timers are armed")
	g.Charge(resource.PoolTimers, -1)
	mustInvariant(t, sp)

	sp.popActive(e) // park the closing flow by hand
	f.Parked = true
	sp.appendParked(e, f.LastTouched())
	want("parked flow holds control work")
}

// TestStaleDescriptorIsNotMalformed: TX requests an application queued
// for a flow that was then torn down — aborted, or reset and its tuple
// reincarnated — before the owning core drained them are stale, not
// malformed; a flow that was never installed is still bad_desc. Each
// request is larger than one MSS, so it waits on the ring instead of
// running inline.
func TestStaleDescriptorIsNotMalformed(t *testing.T) {
	eng, sp, _ := newWireRig(Config{})
	ctx := eng.ContextByID(0)
	n := 2 * protocol.DefaultMSS
	send := func(f *flowstate.Flow) {
		queue(f, n)
		if !eng.PushTxCmd(ctx, fastpath.TxCmd{Op: fastpath.OpTx, Flow: f, Bytes: uint32(n)}) {
			t.Fatal("request ring full")
		}
	}
	aborted := rigFlow(eng, sp, 1, eng.NowNanos())
	send(aborted)
	sp.abortFlow(aborted, 0)

	reset := rigFlow(eng, sp, 2, eng.NowNanos())
	send(reset)
	sp.handleException(peerSegment(reset, protocol.FlagRST, reset.AckNo, 0))
	if eng.Table.Len() != 0 {
		t.Fatal("teardown left flows installed")
	}
	rigFlow(eng, sp, 2, eng.NowNanos()) // the tuple's next incarnation

	send(&flowstate.Flow{ // never installed
		LocalIP: eng.Config().LocalIP, LocalPort: 80, PeerIP: protocol.MakeIPv4(10, 9, 9, 9), PeerPort: 9,
		RxBuf: shmring.NewPayloadBuffer(1 << 10), TxBuf: shmring.NewPayloadBuffer(1 << 10),
	})

	eng.Start() // the owning core drains the ring only now
	defer eng.Stop()
	waitCond(t, "the requests drained", time.Second, func() bool {
		d := eng.Drops()
		return d.StaleDesc+d.BadDesc == 3
	})
	if d := eng.Drops(); d.StaleDesc != 2 || d.BadDesc != 1 {
		t.Fatalf("stale_desc = %d, bad_desc = %d; want 2 and 1", d.StaleDesc, d.BadDesc)
	}
}
