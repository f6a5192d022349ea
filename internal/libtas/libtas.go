// Package libtas is the untrusted per-application user-space stack
// (§3.3): it presents a sockets-style interface (Dial/Listen/Accept/
// Send/Recv/Close) on top of the fast path's context queues and per-flow
// payload buffers, plus the low-level API (direct context-event access,
// the IX-like interface the paper calls "TAS LL").
//
// Each Context corresponds to one application thread: it owns a queue
// pair per fast-path core and an epoll-like wakeup channel. A Context's
// methods (and those of the Conns and Listeners bound to it) must be
// used from one goroutine at a time, exactly like the paper's
// per-thread contexts.
package libtas

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/slowpath"
	"repro/internal/telemetry"
)

// Errors returned by the sockets layer.
var (
	ErrTimeout    = errors.New("libtas: operation timed out")
	ErrClosed     = errors.New("libtas: connection closed")
	ErrWouldBlock = errors.New("libtas: operation would block")
	// ErrReset: the connection was aborted — the peer sent RST, or the
	// slow path exhausted its retransmission budget (dead peer,
	// partition). In-flight data may have been lost.
	ErrReset = errors.New("libtas: connection reset")
	// ErrPeerDead: the slow path's liveness probes — zero-window persist
	// probes or keepalives — went unanswered past their budget; the peer
	// is presumed silently dead (crashed without RST, or blackholed).
	// Wraps ErrReset so errors.Is(err, ErrReset) checks keep matching.
	ErrPeerDead = fmt.Errorf("libtas: peer dead (liveness probes unanswered): %w", ErrReset)
	// ErrAppDead: the context's application exited and the slow path
	// reaped its resources; the context and everything bound to it are
	// unusable.
	ErrAppDead = errors.New("libtas: application context reaped")
	// ErrSlowPathDown: the TAS control plane is unavailable (slow-path
	// crash or stall detected via missed heartbeats). Established
	// connections keep transferring on the fast path, but operations
	// that need the slow path — Dial, Listen — fail fast until a warm
	// restart recovers it.
	ErrSlowPathDown = errors.New("libtas: slow path down")
	// ErrBackpressure: a finite resource pool or this application's
	// quota is exhausted (or the degradation ladder's TX clamp bound a
	// non-blocking send). The operation was refused deliberately so the
	// caller can shed or defer load; retrying after pressure subsides is
	// expected to succeed.
	ErrBackpressure = errors.New("libtas: backpressure: resources exhausted")
)

// Stack binds a fast-path engine and slow path into an application-
// facing user-level TCP stack.
type Stack struct {
	Eng *fastpath.Engine

	// slow is the current slow-path instance. It is an atomic pointer
	// because a warm restart swaps in a fresh instance while
	// application goroutines are mid-call; connections always route
	// control requests through Slow() so they reach whichever instance
	// is current.
	slow atomic.Pointer[slowpath.Slowpath]

	// telem is the engine's telemetry hub; when non-nil it enables
	// application-side observability: app-copy cycle accounting and
	// app-send/app-recv flight-recorder events.
	telem *telemetry.Telemetry

	// Waits counts how the application's blocking calls waited.
	Waits WaitStats
}

// WaitStats counts the ends of the application's waits (Context.wait),
// the application half of the hand-off account: a blocked wait is a
// goroutine hand-off, a polled one is not. A field tagged `metric` is
// exported once per service under that name, with its `help` text.
type WaitStats struct {
	Blocks atomic.Uint64 `metric:"tas_app_blocks_total" help:"Application waits that blocked on the context's wake channel."`
	Polled atomic.Uint64 `metric:"tas_app_polled_total" help:"Application waits satisfied while polling on inline-step credit."`
}

// NewStack registers the application with the TAS service (the paper's
// special system call + UNIX socket bootstrap, in-process here).
func NewStack(eng *fastpath.Engine, slow *slowpath.Slowpath) *Stack {
	s := &Stack{Eng: eng, telem: eng.Telemetry()}
	s.slow.Store(slow)
	return s
}

// Slow returns the current slow-path instance.
func (s *Stack) Slow() *slowpath.Slowpath { return s.slow.Load() }

// SetSlow swaps in a warm-restarted slow-path instance.
func (s *Stack) SetSlow(sp *slowpath.Slowpath) { s.slow.Store(sp) }

// Context is one application thread's attachment: event queues plus the
// connection registry used to dispatch events.
type Context struct {
	stack *Stack
	fp    *fastpath.Context

	mu        sync.Mutex
	conns     []*Conn     // index = opaque id
	listeners []*Listener // index = listener opaque id

	dispatchMu sync.Mutex
	evBuf      [256]fastpath.Event

	// wakeTicks drives the sampled wakeup-to-ready latency observation
	// in wait (1-in-wakeSampleEvery wakeups). Atomic: a context's wait
	// can be entered from more than one goroutine over its lifetime.
	wakeTicks atomic.Uint64
}

// wakeSampleEvery is the wakeup-latency sampling period (power of two):
// wait times one in this many wakeup→condition cycles, mirroring the
// app-copy cycle sampling in conn.go.
const wakeSampleEvery = 32

// NewContext allocates and registers a context.
func (s *Stack) NewContext() *Context {
	ctx := &Context{stack: s}
	ctx.fp = fastpath.NewContext(0, s.Eng.MaxCores(), 1024)
	s.Eng.RegisterContext(ctx.fp)
	return ctx
}

// KillApp is the application exiting abruptly, as a crash would: the
// slow path is told at once and reaps every resource the context holds.
// Idempotent, and safe after the stack has stopped.
func (c *Context) KillApp() { c.stack.Eng.ExitContext(c.fp) }

// FP exposes the low-level context (the TAS LL API).
func (c *Context) FP() *fastpath.Context { return c.fp }

// dispatch drains pending fast-path events into connection state. It
// returns the number of events processed. Contexts are meant to be used
// from a single goroutine; the mutex only prevents corruption if that
// contract is violated.
func (c *Context) dispatch() int {
	c.dispatchMu.Lock()
	defer c.dispatchMu.Unlock()
	n := c.fp.PollEvents(c.evBuf[:])
	for i := 0; i < n; i++ {
		ev := c.evBuf[i]
		switch ev.Kind {
		case fastpath.EvAccepted:
			c.mu.Lock()
			if int(ev.Opaque) < len(c.listeners) {
				l := c.listeners[ev.Opaque]
				l.backlog = append(l.backlog, ev.Flow)
			}
			c.mu.Unlock()
		case fastpath.EvConnected:
			c.mu.Lock()
			if int(ev.Opaque) < len(c.conns) {
				if conn := c.conns[ev.Opaque]; conn != nil {
					switch ev.Bytes {
					case 0:
						conn.flow = ev.Flow
						conn.established.Store(true)
					case fastpath.ConnTimedOut:
						conn.timedOut.Store(true)
					case fastpath.ConnBackpressure:
						conn.backpressured.Store(true)
					default: // fastpath.ConnRefused
						conn.refused.Store(true)
					}
				}
			}
			c.mu.Unlock()
		case fastpath.EvClosed:
			c.mu.Lock()
			if conn := c.connFor(ev); conn != nil {
				conn.peerClosed.Store(true)
			}
			c.mu.Unlock()
		case fastpath.EvAborted:
			c.mu.Lock()
			if conn := c.connFor(ev); conn != nil {
				if ev.Bytes == fastpath.AbortPeerDead {
					conn.peerDead.Store(true)
				}
				conn.aborted.Store(true)
			}
			c.mu.Unlock()
		case fastpath.EvData, fastpath.EvTxAcked:
			// Pure wakeups: Recv/Send poll the payload buffers directly,
			// so event payloads need not be tracked.
		}
	}
	return n
}

// connFor returns the connection a close or abort event is for, nil if
// it is for none here. Until Accept rebinds a passive flow, its Opaque is
// its listener's index, so the index alone could name an unrelated
// connection: the event's flow must be the connection's. Accept and
// Rebind read the flow's state themselves for what they missed. Caller
// holds c.mu.
func (c *Context) connFor(ev fastpath.Event) *Conn {
	if int(ev.Opaque) < len(c.conns) {
		if conn := c.conns[ev.Opaque]; conn != nil && conn.flow == ev.Flow {
			return conn
		}
	}
	return nil
}

// wait polls until cond holds, blocking on the context's wakeup channel
// between polls (the epoll analogue). Before it blocks it polls for as
// long as the fast-path steps its goroutine ran inline earned
// (Engine.PollOnCredit): a Send that delivered the request itself
// expects the reply soon. A zero timeout waits forever. A context reaped
// by the slow path fails fast with ErrAppDead instead of blocking on
// queues nobody serves anymore.
func (c *Context) wait(cond func() bool, timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	// wokeAt is non-zero when the preceding wakeup was sampled for the
	// wakeup-to-ready latency histogram: the span from the fast path
	// firing the wake channel to the condition (data/event visible to
	// the app) holding.
	var wokeAt time.Time
	polled := false
	for {
		if c.fp.Dead() {
			return ErrAppDead
		}
		c.dispatch()
		if cond() {
			if polled {
				c.stack.Waits.Polled.Add(1)
			}
			c.observeWake(wokeAt)
			return nil
		}
		wokeAt = time.Time{}
		if polled = c.stack.Eng.PollOnCredit(c.fp); polled {
			runtime.Gosched()
			continue
		}
		ch := c.fp.Sleep()
		// Re-poll after publishing the sleep flag (lost-wakeup guard).
		c.dispatch()
		if cond() {
			c.fp.Awake(ch)
			return nil
		}
		c.stack.Waits.Blocks.Add(1)
		ok := sleepOn(ch, deadline)
		if ok {
			wokeAt = c.sampleWake()
		}
		c.fp.Awake(ch)
		if !ok {
			return ErrTimeout
		}
	}
}

// waitTimers recycles the deadline timers of blocking waits, so that a
// wait with a timeout allocates nothing in steady state. The pool is
// per waiter, not per context: a sender and a receiver goroutine may be
// blocked on one context at once.
var waitTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// sleepOn blocks until ch is signalled or the deadline (zero = none)
// arrives; it reports false only when called at or past the deadline.
// A timer that fires merely ends the sleep — the caller polls once
// more and its next call finds the deadline passed — so a stale tick
// left in a recycled timer's channel can cost a spurious wakeup but
// never a premature timeout.
func sleepOn(ch <-chan struct{}, deadline time.Time) bool {
	if deadline.IsZero() {
		<-ch
		return true
	}
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	t := waitTimers.Get().(*time.Timer)
	t.Reset(d)
	select {
	case <-ch:
	case <-t.C:
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	waitTimers.Put(t)
	return true
}

// sampleWake stamps 1-in-wakeSampleEvery wakeups (zero otherwise); the
// unsampled cost is one atomic increment.
func (c *Context) sampleWake() time.Time {
	if c.stack.telem == nil {
		return time.Time{}
	}
	if c.wakeTicks.Add(1)&(wakeSampleEvery-1) != 0 {
		return time.Time{}
	}
	return time.Now()
}

// observeWake records a sampled wakeup-to-ready latency (µs).
func (c *Context) observeWake(wokeAt time.Time) {
	if wokeAt.IsZero() {
		return
	}
	if t := c.stack.telem; t != nil {
		us := time.Since(wokeAt).Microseconds()
		if us < 0 {
			us = 0
		}
		t.Wakeup.Observe(uint64(us), c.fp.ID)
	}
}

// newConnLocked allocates a Conn slot; caller holds c.mu.
func (c *Context) newConnLocked() (*Conn, uint64) {
	conn := &Conn{ctx: c}
	c.conns = append(c.conns, conn)
	return conn, uint64(len(c.conns) - 1)
}

// Dial opens a TCP connection to ip:port via the slow path, blocking
// until the handshake completes.
func (c *Context) Dial(ip protocol.IPv4, port uint16, timeout time.Duration) (*Conn, error) {
	if c.fp.Dead() {
		return nil, ErrAppDead
	}
	// Shed fast while the control plane is down: a SYN sent now has
	// nobody to complete its handshake, so failing immediately beats
	// blocking the application until its dial deadline.
	if c.stack.Eng.Degraded() {
		return nil, ErrSlowPathDown
	}
	c.mu.Lock()
	conn, opaque := c.newConnLocked()
	c.mu.Unlock()
	if _, err := c.stack.Slow().Connect(ip, port, uint16(c.fp.ID), opaque); err != nil {
		if errors.Is(err, slowpath.ErrDown) {
			return nil, ErrSlowPathDown
		}
		if errors.Is(err, resource.ErrExhausted) {
			// The governor refused admission (quota or half-open pool):
			// explicit backpressure before any handshake traffic.
			return nil, ErrBackpressure
		}
		return nil, err
	}
	err := c.wait(func() bool {
		return conn.established.Load() || conn.refused.Load() ||
			conn.timedOut.Load() || conn.backpressured.Load()
	}, timeout)
	if err != nil {
		return nil, err
	}
	if conn.backpressured.Load() {
		// The handshake completed but flow installation was refused:
		// pools were exhausted at the moment of establishment.
		return nil, ErrBackpressure
	}
	if conn.refused.Load() {
		return nil, slowpath.ErrNoListener
	}
	if conn.timedOut.Load() {
		// The slow path exhausted its SYN retransmission budget (lost
		// SYNs, partition, dead peer) before the caller's deadline.
		return nil, ErrTimeout
	}
	conn.flow.Lock()
	conn.flow.Opaque = opaque
	conn.flow.Unlock()
	return conn, nil
}

// Listen registers a listening port on this context with the slow
// path's default accept backlog.
func (c *Context) Listen(port uint16) (*Listener, error) {
	return c.ListenBacklog(port, 0)
}

// ListenBacklog registers a listening port with an explicit bound on
// in-flight handshakes plus accepted-but-unconsumed connections
// (0 = the slow path's configured default). SYNs beyond the bound are
// shed by the slow path instead of queued without bound.
func (c *Context) ListenBacklog(port uint16, backlog int) (*Listener, error) {
	if c.fp.Dead() {
		return nil, ErrAppDead
	}
	if c.stack.Eng.Degraded() {
		return nil, ErrSlowPathDown
	}
	c.mu.Lock()
	l := &Listener{ctx: c, port: port}
	c.listeners = append(c.listeners, l)
	opaque := uint64(len(c.listeners) - 1)
	c.mu.Unlock()
	pending, err := c.stack.Slow().ListenBacklog(port, uint16(c.fp.ID), opaque, backlog)
	if err != nil {
		if errors.Is(err, slowpath.ErrDown) {
			return nil, ErrSlowPathDown
		}
		return nil, err
	}
	l.pending = pending
	return l, nil
}

// Listener accepts inbound connections on a port.
type Listener struct {
	ctx     *Context
	port    uint16
	backlog []*flowstate.Flow
	closed  bool
	// pending mirrors the slow path's accept-queue depth gauge: the
	// slow path increments it per delivered accept event; Accept
	// decrements it as the application consumes connections, opening
	// backlog headroom for new SYNs.
	pending *atomic.Int32
}

// Accept blocks for the next established connection. A zero timeout
// waits forever.
func (l *Listener) Accept(timeout time.Duration) (*Conn, error) {
	c := l.ctx
	var flow *flowstate.Flow
	err := c.wait(func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if l.closed {
			return true
		}
		if len(l.backlog) > 0 {
			flow = l.backlog[0]
			l.backlog = l.backlog[1:]
			if l.pending != nil {
				l.pending.Add(-1)
				// Mirror the accept-backlog drain into the governor
				// (charged by the slow path per delivered accept).
				if g := c.stack.Eng.Governor(); g != nil {
					g.Charge(resource.PoolAccept, -1)
				}
			}
			return true
		}
		return false
	}, timeout)
	if err != nil {
		return nil, err
	}
	if flow == nil {
		return nil, ErrClosed
	}
	c.mu.Lock()
	conn, opaque := c.newConnLocked()
	conn.flow = flow // before another goroutine's dispatch can match on it
	c.mu.Unlock()
	conn.established.Store(true)
	// Rebind the flow's context-queue events to the accepting conn, and
	// take over what the flow went through before it was accepted.
	flow.Lock()
	flow.Opaque = opaque
	conn.seedLocked()
	flow.Unlock()
	return conn, nil
}

// Close unregisters the listener.
func (l *Listener) Close() {
	l.ctx.stack.Slow().Unlisten(l.port)
	l.ctx.mu.Lock()
	l.closed = true
	l.ctx.mu.Unlock()
	l.ctx.fp.Wake()
}
