package libtas

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// Conn is a TCP connection backed by TAS per-flow payload buffers. Send
// copies into the transmit buffer and pushes a TX request to the flow's
// fast-path core; Recv copies out of the receive buffer (the fast path
// deposited payload there directly). Methods must be called from the
// context's goroutine.
type Conn struct {
	ctx  *Context
	flow *flowstate.Flow

	// established/refused/timedOut/peerClosed/aborted are written by
	// whichever goroutine happens to run dispatch and read by the
	// connection's owner, which may be a different goroutine when several
	// connections share a context — hence atomics.
	established   atomic.Bool
	refused       atomic.Bool
	timedOut      atomic.Bool
	peerClosed    atomic.Bool
	aborted       atomic.Bool // RST received or retransmission budget exhausted
	peerDead      atomic.Bool // refines aborted: liveness probes went unanswered
	backpressured atomic.Bool // flow installation refused: pools/quota exhausted

	closed bool // owner-goroutine only

	// consumedSinceUpdate tracks receive-buffer space freed since the
	// last window update we pushed to the peer.
	consumedSinceUpdate int

	// sendCopies and recvCopies drive app-copy cycle sampling: one copy
	// in appCycleSampleEvery is wall-timed (clock reads cost ~50-90ns,
	// comparable to a small copy). One counter per direction: a
	// connection may have a sender and a receiver goroutine at once,
	// but each direction is driven by one goroutine at a time.
	sendCopies, recvCopies uint32
}

// appCycleSampleEvery is the app-copy cycle-accounting sampling period
// (power of two); see Conn.sendCopies.
const appCycleSampleEvery = 32

// copyTimer starts a sampled app-copy timing interval on one
// direction's counter: it returns the start timestamp and whether this
// copy is one of the timed samples.
func copyTimer(tm *telemetry.Telemetry, copies *uint32) (int64, bool) {
	if tm == nil {
		return 0, false
	}
	*copies++
	if *copies&(appCycleSampleEvery-1) != 0 {
		return 0, false
	}
	return tm.RefreshNow(), true
}

// chargeCopy credits one app copy to the cycle account, with wall time
// scaled back up when this copy was a timed sample.
func chargeCopy(tm *telemetry.Telemetry, t0 int64, timed bool) {
	if tm == nil {
		return
	}
	var nanos int64
	if timed {
		nanos = (tm.RefreshNow() - t0) * appCycleSampleEvery
	}
	tm.Cycles.AddApp(telemetry.ModAppCopy, nanos, 1)
}

// Flow exposes the underlying per-flow state (low-level API users).
func (cn *Conn) Flow() *flowstate.Flow { return cn.flow }

// resetErr maps an aborted connection to its error: ErrPeerDead (which
// wraps ErrReset) when the slow path's liveness probes declared the
// peer silently dead, plain ErrReset otherwise.
func (cn *Conn) resetErr() error {
	if cn.peerDead.Load() {
		return ErrPeerDead
	}
	return ErrReset
}

// txHeadroom returns how many bytes a send may append to the transmit
// buffer right now: the free space, further bounded by the governor's
// per-flow grant while the degradation ladder's TX clamp (rung 3) is
// engaged. The second result reports whether the clamp — not buffer
// fullness — is what bound the answer. Caller holds the flow lock.
func (cn *Conn) txHeadroom(f *flowstate.Flow) (int, bool) {
	free := f.TxBuf.Free()
	g := cn.ctx.stack.Eng.Governor()
	if g == nil {
		return free, false
	}
	grant := g.TxGrant()
	if grant <= 0 {
		return free, false
	}
	room := int(grant) - f.TxBuf.Used()
	if room < 0 {
		room = 0
	}
	if room < free {
		return room, true
	}
	return free, false
}

// txReady is the lock-free wait condition for blocked senders: space in
// the transmit buffer that the governor's grant (when clamping) still
// permits using.
func (cn *Conn) txReady() bool {
	f := cn.flow
	if f.TxBuf.Free() <= 0 {
		return false
	}
	if g := cn.ctx.stack.Eng.Governor(); g != nil {
		if grant := g.TxGrant(); grant > 0 && int64(f.TxBuf.Used()) >= grant {
			return false
		}
	}
	return true
}

// noteClamp counts one send bound by the rung-3 TX clamp.
func (cn *Conn) noteClamp() {
	if g := cn.ctx.stack.Eng.Governor(); g != nil {
		g.NoteShed(resource.LevelClampTx)
	}
}

// Send writes all of p to the connection, blocking while the transmit
// buffer is full. A zero timeout waits forever.
func (cn *Conn) Send(p []byte, timeout time.Duration) (int, error) {
	if cn.closed {
		return 0, ErrClosed
	}
	sent := 0
	tm := cn.ctx.stack.telem
	for sent < len(p) {
		if cn.aborted.Load() {
			return sent, cn.resetErr()
		}
		if cn.peerClosed.Load() {
			return sent, ErrClosed
		}
		if cn.ctx.fp.Dead() {
			// Reaped: the buffers below are reclaimed and refuse writes, and
			// no abort event reaches a dead context. Without this check a
			// send that finds free space "succeeds" into the void forever;
			// only a send that had to wait ever learned the app was dead.
			return sent, ErrAppDead
		}
		f := cn.flow
		t0, timed := copyTimer(tm, &cn.sendCopies)
		f.Lock()
		free, clamped := cn.txHeadroom(f)
		n := len(p) - sent
		if n > free {
			n = free
		}
		if n > 0 {
			f.TxBuf.Write(p[sent : sent+n])
		}
		f.Unlock()
		if n > 0 {
			sent += n
			chargeCopy(tm, t0, timed)
			f.Touch(cn.ctx.stack.Eng.CoarseNanos())
			if f.Rec != nil {
				f.Rec.Record(telemetry.FEAppSend, 0, 0, uint32(n), 0)
			}
			// Inform the fast path (a TX request, §3.1). A request the
			// core's ring refuses puts the flow on the slow path's control
			// tick instead, which kicks it: the payload is already in the
			// buffer.
			cn.ctx.stack.Eng.PushTxCmd(cn.ctx.fp, fastpath.TxCmd{Op: fastpath.OpTx, Flow: f, Bytes: uint32(n)})
			continue
		}
		if clamped {
			cn.noteClamp()
		}
		// Buffer (or, under pressure, the governor's grant) exhausted:
		// wait for acknowledgements to free space — deadline-bounded
		// blocking on a buffer grant when the clamp is what binds.
		err := cn.ctx.wait(func() bool {
			return cn.aborted.Load() || cn.peerClosed.Load() || cn.txReady()
		}, timeout)
		if err != nil {
			if err == ErrTimeout && clamped {
				return sent, ErrBackpressure
			}
			return sent, err
		}
	}
	return sent, nil
}

// Recv reads up to len(p) bytes, blocking until at least one byte (or
// EOF) is available. A zero timeout waits forever.
func (cn *Conn) Recv(p []byte, timeout time.Duration) (int, error) {
	if cn.closed {
		return 0, ErrClosed
	}
	for {
		n := cn.recvNoWait(p)
		if n > 0 {
			return n, nil
		}
		if cn.aborted.Load() {
			// Already-buffered data was delivered above; past that, the
			// stream is broken.
			return 0, cn.resetErr()
		}
		if cn.peerClosed.Load() {
			return 0, io.EOF
		}
		err := cn.ctx.wait(func() bool {
			return cn.aborted.Load() || cn.peerClosed.Load() || cn.flow.RxBuf.Used() > 0
		}, timeout)
		if err != nil {
			return 0, err
		}
	}
}

// SendNoWait writes as much of p as currently fits in the transmit
// buffer without blocking. It returns ErrWouldBlock when nothing fits
// (Send blocks until space frees).
func (cn *Conn) SendNoWait(p []byte) (int, error) {
	if cn.aborted.Load() {
		return 0, cn.resetErr()
	}
	if cn.closed || cn.peerClosed.Load() {
		return 0, ErrClosed
	}
	if cn.ctx.fp.Dead() {
		return 0, ErrAppDead // reaped: see Send
	}
	f := cn.flow
	f.Lock()
	free, clamped := cn.txHeadroom(f)
	n := len(p)
	if n > free {
		n = free
	}
	if n > 0 {
		f.TxBuf.Write(p[:n])
	}
	f.Unlock()
	if n == 0 {
		if clamped {
			// The governor's grant, not buffer fullness, refused the
			// send: surface typed backpressure so the caller sheds load.
			cn.noteClamp()
			return 0, ErrBackpressure
		}
		return 0, ErrWouldBlock
	}
	f.Touch(cn.ctx.stack.Eng.CoarseNanos())
	cn.ctx.stack.Eng.PushTxCmd(cn.ctx.fp, fastpath.TxCmd{Op: fastpath.OpTx, Flow: f, Bytes: uint32(n)})
	return n, nil
}

// RecvNoWait reads whatever is immediately available (0 if none) — part
// of the low-level API.
func (cn *Conn) RecvNoWait(p []byte) int {
	cn.ctx.dispatch()
	return cn.recvNoWait(p)
}

func (cn *Conn) recvNoWait(p []byte) int {
	f := cn.flow
	tm := cn.ctx.stack.telem
	t0, timed := copyTimer(tm, &cn.recvCopies)
	f.Lock()
	used := f.RxBuf.Used()
	n := f.RxBuf.Read(p)
	f.Unlock()
	if n > 0 {
		chargeCopy(tm, t0, timed)
		// An app draining buffered data is active even if no new packets
		// arrive; keep it off the idle-reclaim rung's victim list.
		f.Touch(cn.ctx.stack.Eng.CoarseNanos())
		if f.Rec != nil {
			f.Rec.Record(telemetry.FEAppRecv, 0, 0, uint32(n), 0)
		}
		cn.noteConsumed(n, used)
	}
	return n
}

// noteConsumed sends a window update once the application has freed a
// substantial fraction of the receive buffer while the peer may be
// waiting for it, so a sender blocked on flow control resumes (TCP
// window update). used is what the buffer held before the read, about
// the window the last ACK advertised taken from the other side: a
// quarter buffer freed from a buffer at least half full reopens a window
// the peer may have run out of. A peer told at least half a buffer is
// still sending, and the ACKs its segments draw carry the new window, so
// below that an update goes out only once a whole buffer's worth has
// been consumed — a refresh for a peer whose view went stale on a lost
// ACK.
func (cn *Conn) noteConsumed(n, used int) {
	cn.consumedSinceUpdate += n
	size := cn.flow.RxBuf.Size()
	if cn.consumedSinceUpdate >= size/4 && used >= size/2 || cn.consumedSinceUpdate >= size {
		cn.consumedSinceUpdate = 0
		cn.ctx.stack.Eng.SendWindowUpdate(cn.flow)
	}
}

// Buffered returns the bytes currently readable.
func (cn *Conn) Buffered() int { return cn.flow.RxBuf.Used() }

// Aborted reports whether the connection failed (RST received or
// retransmission budget exhausted), after dispatching pending events.
func (cn *Conn) Aborted() bool {
	cn.ctx.dispatch()
	return cn.aborted.Load()
}

// SendZeroCopy hands the caller writable spans of the transmit buffer
// (fill returns the byte count actually produced), then notifies the
// fast path — the zero-copy variant of Send enabled by the shared
// payload-buffer design: the application assembles its message in the
// very memory the fast path segments from. Returns the bytes committed
// (possibly 0 when the buffer is full).
func (cn *Conn) SendZeroCopy(max int, fill func(first, second []byte) int) (int, error) {
	if cn.aborted.Load() {
		return 0, cn.resetErr()
	}
	if cn.closed {
		return 0, ErrClosed
	}
	if cn.peerClosed.Load() {
		return 0, ErrClosed
	}
	if cn.ctx.fp.Dead() {
		return 0, ErrAppDead // reaped: see Send
	}
	f := cn.flow
	f.Lock()
	if room, clamped := cn.txHeadroom(f); clamped && max > room {
		max = room // rung-3 clamp bounds the reservation
	}
	a, b := f.TxBuf.ReserveHead(max)
	n := 0
	if len(a)+len(b) > 0 {
		n = fill(a, b)
		if n < 0 || n > len(a)+len(b) {
			f.Unlock()
			panic("libtas: SendZeroCopy fill returned invalid count")
		}
		f.TxBuf.AdvanceHead(n)
	}
	f.Unlock()
	if n > 0 {
		f.Touch(cn.ctx.stack.Eng.CoarseNanos())
		cn.ctx.stack.Eng.PushTxCmd(cn.ctx.fp, fastpath.TxCmd{Op: fastpath.OpTx, Flow: f, Bytes: uint32(n)})
	}
	return n, nil
}

// RecvZeroCopy exposes up to max readable bytes in place (consume
// returns how many bytes the application is done with). The zero-copy
// variant of Recv: the fast path deposited the payload directly into
// this buffer and the application reads it without another copy.
func (cn *Conn) RecvZeroCopy(max int, consume func(first, second []byte) int) int {
	f := cn.flow
	f.Lock()
	used := f.RxBuf.Used()
	a, b := f.RxBuf.PeekTail(max)
	n := 0
	if len(a)+len(b) > 0 {
		n = consume(a, b)
		if n < 0 || n > len(a)+len(b) {
			f.Unlock()
			panic("libtas: RecvZeroCopy consume returned invalid count")
		}
		f.RxBuf.Release(n)
	}
	f.Unlock()
	if n > 0 {
		cn.noteConsumed(n, used)
	}
	return n
}

// ConnStats is a snapshot of the flow's fast-path state counters.
type ConnStats struct {
	RTTMicros    uint32 // smoothed RTT estimate (rtt_est)
	FastRexmits  uint8  // fast retransmits since the last slow-path poll
	RxBuffered   int    // bytes readable
	TxQueued     int    // bytes written but not yet acknowledged
	TxUnsent     int    // of those, not yet transmitted
	RxBufSize    int
	TxBufSize    int
	PeerWindowKB uint16
}

// Stats snapshots the connection's per-flow counters (Table 3 state).
func (cn *Conn) Stats() ConnStats {
	f := cn.flow
	f.Lock()
	st := ConnStats{
		RTTMicros:    f.RTTEst,
		FastRexmits:  f.CntFrexmits,
		RxBuffered:   f.RxBuf.Used(),
		TxQueued:     f.TxBuf.Used(),
		TxUnsent:     f.TxPending(),
		RxBufSize:    f.RxBuf.Size(),
		TxBufSize:    f.TxBuf.Size(),
		PeerWindowKB: f.Window,
	}
	f.Unlock()
	return st
}

// ResizeBuffers grows the connection's payload buffers at runtime via a
// slow-path management command (§4.1 future work implemented).
func (cn *Conn) ResizeBuffers(rxSize, txSize int) {
	cn.ctx.stack.Slow().ResizeBuffers(cn.flow, rxSize, txSize)
}

// Rebind moves the connection to another context of the same stack —
// the handoff pattern for accept loops: the listener's context accepts,
// then each connection moves to its own per-goroutine context. After
// Rebind, the connection must only be used from the new context's
// goroutine. Events still queued in the old context are ignored there
// (Recv/Send poll the payload buffers directly; a close or abort among
// them is read from the flow's state instead).
func (cn *Conn) Rebind(newCtx *Context) {
	old := cn.ctx
	if old == newCtx {
		return
	}
	newCtx.mu.Lock()
	cn2 := cn // keep slot identity
	newCtx.conns = append(newCtx.conns, cn2)
	opaque := uint64(len(newCtx.conns) - 1)
	newCtx.mu.Unlock()

	old.mu.Lock()
	for i, c := range old.conns {
		if c == cn {
			old.conns[i] = nil
		}
	}
	old.mu.Unlock()

	cn.flow.Lock()
	cn.flow.Context = uint16(newCtx.fp.ID)
	cn.flow.Opaque = opaque
	cn.seedLocked()
	cn.flow.Unlock()
	cn.ctx = newCtx
}

// seedLocked marks the connection closed or aborted as its flow already
// is: a close or abort event posted before the flow named this
// connection went to its listener's or its old context's index, where
// dispatch ignores it. It runs in the flow-lock section that sets
// Opaque, so an event posted after it carries the new index. Caller
// holds the flow lock.
func (cn *Conn) seedLocked() {
	f := cn.flow
	if f.FinReceived {
		cn.peerClosed.Store(true)
	}
	if f.PeerDead {
		cn.peerDead.Store(true)
	}
	if f.Aborted {
		cn.aborted.Store(true)
	}
}

// Close initiates teardown via the slow path (graceful FIN after the
// transmit buffer drains). Closing a connection that was already reset
// (RST received, retransmission budget exhausted, or the app context
// reaped) is a local-state no-op and reports ErrReset; there is nothing
// left to tear down gracefully. Close is idempotent: repeat calls
// return the same result as the first.
func (cn *Conn) Close() error {
	cn.ctx.dispatch()
	if !cn.aborted.Load() {
		// The abort event never reaches a reaped (dead) context, so also
		// consult the authoritative per-flow state.
		cn.flow.Lock()
		cn.aborted.Store(cn.flow.Aborted)
		if cn.flow.PeerDead {
			cn.peerDead.Store(true)
		}
		cn.flow.Unlock()
	}
	if cn.aborted.Load() {
		cn.closed = true
		return cn.resetErr()
	}
	if cn.closed {
		return nil
	}
	cn.closed = true
	cn.ctx.stack.Slow().Close(cn.flow)
	return nil
}
