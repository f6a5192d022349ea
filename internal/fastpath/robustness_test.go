package fastpath

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/protocol"
)

// TestContextSlotReuse exercises the context registry free-list: a slot
// released by UnregisterContext is handed to the next registration, the
// registry never grows, and a freed slot reads back nil until reused —
// the invariant the app reaper depends on to stop a dead application
// from leaking context slots.
func TestContextSlotReuse(t *testing.T) {
	e, _ := testEngine()
	a := NewContext(0, 2, 64)
	b := NewContext(0, 2, 64)
	idA := e.RegisterContext(a)
	idB := e.RegisterContext(b)
	if idA == idB {
		t.Fatalf("distinct contexts share id %d", idA)
	}

	e.UnregisterContext(a)
	if got := e.ContextByID(idA); got != nil {
		t.Fatalf("freed slot %d still resolves to %p", idA, got)
	}
	if got := e.ContextByID(idB); got != b {
		t.Fatalf("unrelated slot %d disturbed", idB)
	}

	// Double-unregister and stale-pointer unregister must be no-ops.
	e.UnregisterContext(a)
	c := NewContext(0, 2, 64)
	if id := e.RegisterContext(c); id != idA {
		t.Fatalf("new context got slot %d, want reused slot %d", id, idA)
	}
	e.UnregisterContext(a) // stale: slot now owned by c
	if got := e.ContextByID(idA); got != c {
		t.Fatalf("stale unregister evicted the new owner of slot %d", idA)
	}
	if n := len(e.Contexts()); n != 2 {
		t.Fatalf("registry grew to %d slots, want 2", n)
	}
}

// TestNewContextBytes pins what one context allocates at 2 cores × 1 024
// slots: its per-core event queues and little else. An application's
// transmit requests go to the owning core's ring, not to a queue of the
// context's.
func TestNewContextBytes(t *testing.T) {
	const cores, slots, n = 2, 1024, 16
	keep := make([]*Context, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewContext(0, cores, slots)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	if limit := uint64(cores*slots)*uint64(unsafe.Sizeof(Event{})) + 4096; per > limit {
		t.Fatalf("NewContext(%d cores, %d slots) allocates %d B, want at most %d (event queues + 4 KiB)", cores, slots, per, limit)
	}
	runtime.KeepAlive(keep)
}

// TestSynShedUnderExcqPressure verifies slow-path admission control:
// when the exception queue nears saturation, bare SYNs (new-connection
// attempts) are shed and counted while exceptions for established flows
// still get through, and a completely full queue counts ExcqDrop.
func TestSynShedUnderExcqPressure(t *testing.T) {
	e, _ := testEngine()
	syn := &protocol.Packet{
		SrcIP: protocol.MakeIPv4(10, 0, 0, 2), DstIP: e.cfg.LocalIP,
		SrcPort: 5000, DstPort: 80, Flags: protocol.FlagSYN, Seq: 1,
	}
	fin := &protocol.Packet{
		SrcIP: protocol.MakeIPv4(10, 0, 0, 2), DstIP: e.cfg.LocalIP,
		SrcPort: 5001, DstPort: 80, Flags: protocol.FlagFIN | protocol.FlagACK, Seq: 1,
	}

	// Below the 3/4 high-water mark a SYN is admitted.
	e.toSlowPath(e.cores[0], syn)
	if got := e.cores[0].stats.SynShed.Load(); got != 0 {
		t.Fatalf("SYN shed below high-water mark: %d", got)
	}
	if e.excq.Len() != 1 {
		t.Fatalf("admitted SYN not enqueued")
	}

	// Stuff the queue to the high-water mark.
	for e.excq.Len() < e.excq.Cap()*3/4 {
		if !e.excq.Enqueue(fin) {
			t.Fatal("could not stuff exception queue")
		}
	}
	depth := e.excq.Len()
	e.toSlowPath(e.cores[0], syn)
	if got := e.cores[0].stats.SynShed.Load(); got != 1 {
		t.Fatalf("SynShed = %d, want 1", got)
	}
	if e.excq.Len() != depth {
		t.Fatalf("shed SYN was enqueued anyway")
	}
	// Established-flow exceptions still get through at this depth.
	e.toSlowPath(e.cores[0], fin)
	if e.excq.Len() != depth+1 {
		t.Fatalf("non-SYN exception rejected below full")
	}

	// Fill completely: non-SYN exceptions now count ExcqDrop.
	for e.excq.Enqueue(fin) {
	}
	e.toSlowPath(e.cores[0], fin)
	if got := e.cores[0].stats.ExcqDrop.Load(); got != 1 {
		t.Fatalf("ExcqDrop = %d, want 1", got)
	}
}

// TestDeadContextQuiesced verifies MarkDead makes a context inert: event
// posting fails (no stale deliveries into a slot that may be reused) and
// no TX request for its flows is acted on — neither one queued before
// the verdict nor one pushed after it, which runs inline.
func TestDeadContextQuiesced(t *testing.T) {
	e, _ := testEngine()
	f := testFlow(e)
	ctx := NewContext(0, 2, 64)
	e.RegisterContext(ctx)
	f.Context = 0

	n := 2 * protocol.DefaultMSS // above the inline edge: the request waits on the ring
	f.Lock()
	f.TxBuf.Write(make([]byte, n))
	f.Unlock()
	if !e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: uint32(n)}) {
		t.Fatal("push failed")
	}
	ctx.MarkDead()
	if ctx.PostEvent(0, Event{Kind: EvData, Flow: f}) {
		t.Fatal("PostEvent succeeded on a dead context")
	}
	e.step(e.cores[e.CoreForFlow(f)], e.nowNanos())
	if !e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: 8}) {
		t.Fatal("push failed")
	}
	f.Lock()
	sent := f.TxSent
	f.Unlock()
	if sent != 0 {
		t.Fatalf("dead context's TX request was executed: TxSent=%d", sent)
	}
	if d := e.Drops(); d.StaleDesc != 2 || d.BadDesc != 0 {
		t.Fatalf("stale_desc = %d, bad_desc = %d; want 2 and 0", d.StaleDesc, d.BadDesc)
	}
}
