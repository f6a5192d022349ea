package fastpath

import (
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/telemetry"
)

// TestWatchdogDegradedTransitions drives the heartbeat watchdog through
// a full outage: a stale heartbeat flips the engine into degraded mode
// (counted, flight-recorded), and a resumed heartbeat flips it back,
// observing the outage duration into the histogram.
func TestWatchdogDegradedTransitions(t *testing.T) {
	nic := &stubNIC{}
	e := NewEngine(nic, Config{
		LocalIP:         protocol.MakeIPv4(10, 0, 0, 1),
		LocalMAC:        protocol.MACForIPv4(protocol.MakeIPv4(10, 0, 0, 1)),
		MaxCores:        1,
		SlowPathTimeout: 20 * time.Millisecond,
		Telemetry:       telemetry.Config{Enabled: true},
	})
	telem := e.Telemetry()
	e.Start()
	defer e.Stop()

	if e.Degraded() {
		t.Fatal("degraded immediately after start")
	}

	// Nobody beats: the watchdog must declare the slow path down.
	deadline := time.Now().Add(2 * time.Second)
	for !e.Degraded() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !e.Degraded() {
		t.Fatal("watchdog never entered degraded mode")
	}
	if st := e.Outages(); st.Outages != 1 || !st.Degraded {
		t.Fatalf("outage stats during outage: %+v", st)
	}

	// The heartbeat resumes (a stall ending, or a warm restart).
	deadline = time.Now().Add(2 * time.Second)
	for e.Degraded() && time.Now().Before(deadline) {
		e.SlowpathBeat()
		time.Sleep(time.Millisecond)
	}
	if e.Degraded() {
		t.Fatal("watchdog never recovered")
	}
	// The watchdog clears the flag first, then books the outage and
	// records the transition.
	waitFor(t, "outage booked", func() bool {
		for _, ev := range telem.Recorder.Ring("slowpath").Events() {
			if ev.Kind == telemetry.FERecovered {
				return true
			}
		}
		return false
	})
	st := e.Outages()
	if st.Outages != 1 || st.Degraded || st.Total <= 0 {
		t.Fatalf("outage stats after recovery: %+v", st)
	}
	h := e.OutageHistogram()
	if h == nil || h.Count() != 1 || h.Sum() <= 0 {
		t.Fatal("outage histogram not observed")
	}

	// Both transitions are on the synthetic slow-path flight ring.
	evs := telem.Recorder.Ring("slowpath").Events()
	var sawDown, sawUp bool
	for _, ev := range evs {
		switch ev.Kind {
		case telemetry.FEDegraded:
			sawDown = true
		case telemetry.FERecovered:
			sawUp = true
		}
	}
	if !sawDown || !sawUp {
		t.Fatalf("flight ring missing transitions (down=%v up=%v)", sawDown, sawUp)
	}
}

// TestDegradedShedsSynsKeepsQueueBounded: while the slow path is down
// nobody drains the exception queue, so bare SYNs must be shed at the
// door (counted separately from healthy admission control) and the
// queue must stay bounded — established-flow exceptions are admitted
// until the queue is full, then dropped with ExcqDrop, never enqueued
// past capacity.
func TestDegradedShedsSynsKeepsQueueBounded(t *testing.T) {
	e, _ := testEngine()
	e.degraded.Store(true)

	syn := &protocol.Packet{
		SrcIP: protocol.MakeIPv4(10, 0, 0, 2), DstIP: e.cfg.LocalIP,
		SrcPort: 5000, DstPort: 80, Flags: protocol.FlagSYN, Seq: 1,
	}
	fin := &protocol.Packet{
		SrcIP: protocol.MakeIPv4(10, 0, 0, 2), DstIP: e.cfg.LocalIP,
		SrcPort: 5001, DstPort: 80, Flags: protocol.FlagFIN | protocol.FlagACK, Seq: 1,
	}

	e.toSlowPath(e.cores[0], syn)
	if got := e.cores[0].stats.SynShedDown.Load(); got != 1 {
		t.Fatalf("SynShedDown = %d, want 1", got)
	}
	if e.excq.Len() != 0 {
		t.Fatal("degraded SYN was enqueued")
	}
	if d := e.Drops(); d.SynShedDown != 1 || d.SynShed != 0 {
		t.Fatalf("drops: %+v", d)
	}

	// Established-flow exceptions still queue (the restart will drain
	// them), but only up to capacity.
	capacity := e.excq.Cap()
	for i := 0; i < capacity+10; i++ {
		e.toSlowPath(e.cores[0], fin)
	}
	if got := e.excq.Len(); got != capacity {
		t.Fatalf("exception queue len %d, want bounded at %d", got, capacity)
	}
	if got := e.cores[0].stats.ExcqDrop.Load(); got != 10 {
		t.Fatalf("ExcqDrop = %d, want 10", got)
	}

	// Recovery: SYNs are admitted again.
	e.degraded.Store(false)
	for {
		if _, ok := e.excq.Dequeue(); !ok {
			break
		}
	}
	e.toSlowPath(e.cores[0], syn)
	if e.excq.Len() != 1 {
		t.Fatal("SYN not admitted after recovery")
	}
	if got := e.cores[0].stats.SynShedDown.Load(); got != 1 {
		t.Fatalf("SynShedDown advanced after recovery: %d", got)
	}
}

// TestInactiveCoreDrainsSteeredPackets: after SetActiveCores shrinks the
// RSS set, a packet already steered to a now-inactive core must still
// be processed there (§3.4 lazy drain), with the drain counted.
func TestInactiveCoreDrainsSteeredPackets(t *testing.T) {
	e, _ := testEngine()
	f := testFlow(e)
	e.SetActiveCores(1)

	payload := make([]byte, 100)
	pkt := dataPkt(f, f.AckNo, payload)
	e.processRx(e.cores[1], pkt)

	if got := e.cores[1].stats.InactiveDrain.Load(); got != 1 {
		t.Fatalf("InactiveDrain = %d, want 1", got)
	}
	if got := e.cores[1].stats.WrongCore.Load(); got != 1 {
		t.Fatalf("WrongCore = %d, want 1", got)
	}
	f.Lock()
	ack := f.AckNo
	f.Unlock()
	if ack != 5000+uint32(len(payload)) {
		t.Fatalf("packet on inactive core not processed: AckNo = %d", ack)
	}

	// A packet steered to an active core is not a drain.
	pkt2 := dataPkt(f, f.AckNo, payload)
	e.processRx(e.cores[0], pkt2)
	if got := e.cores[1].stats.InactiveDrain.Load() + e.cores[0].stats.InactiveDrain.Load(); got != 1 {
		t.Fatalf("InactiveDrain = %d after active-core packet, want 1", got)
	}
}
