// Package fastpath implements the TAS fast path for the live engine:
// dedicated goroutine "cores" that poll NIC receive rings and
// application context queues, execute common-case TCP RX/TX processing
// against the minimal per-flow state of Table 3, enforce per-flow rate
// limits set by the slow path, generate acknowledgements, handle one
// interval of out-of-order data plus duplicate-ACK fast recovery, and
// forward everything else to the slow path as exceptions (§3.1).
package fastpath

import (
	"sync"
	"sync/atomic"

	"repro/internal/flowstate"
	"repro/internal/shmring"
)

// EventKind discriminates context-queue events from the fast path (and
// slow path) to an application context.
type EventKind uint8

// Context-queue event kinds.
const (
	// EvData: Bytes of new in-order payload are available in the flow's
	// receive buffer.
	EvData EventKind = iota + 1
	// EvTxAcked: Bytes of transmit-buffer space were freed by
	// acknowledgements (reliably delivered).
	EvTxAcked
	// EvAccepted: a new connection was established on a listener; the
	// slow path posts this. Opaque identifies the listener.
	EvAccepted
	// EvConnected: an outbound connect completed; Bytes != 0 encodes a
	// connect error code (ConnRefused, ConnTimedOut).
	EvConnected
	// EvClosed: the peer closed the connection (all data delivered).
	EvClosed
	// EvAborted: the connection failed — the slow path exhausted its
	// retransmission budget (dead peer / partition) or the peer reset.
	// In-flight data may be lost; subsequent Send/Recv return errors.
	EvAborted
)

// Abort cause codes carried in EvAborted.Bytes (0 = generic: RST or
// retransmission-budget exhaustion).
const (
	// AbortPeerDead: the slow path's liveness probes — zero-window
	// persist probes or keepalives — exhausted their budget without any
	// response; the peer is presumed silently dead. libtas surfaces
	// this as ErrPeerDead rather than the generic reset error.
	AbortPeerDead uint32 = 1
)

// Connect error codes carried in EvConnected.Bytes.
const (
	// ConnRefused: the peer answered our SYN with RST (no listener).
	ConnRefused uint32 = 1
	// ConnTimedOut: the handshake retry budget was exhausted without an
	// answer (lost SYNs, partitioned link, dead peer).
	ConnTimedOut uint32 = 2
	// ConnBackpressure: local resource pools or the app's quota were
	// exhausted at establishment; the slow path refused the connection.
	ConnBackpressure uint32 = 3
)

// Event is one context-queue entry (fast path -> application).
type Event struct {
	Kind   EventKind
	Opaque uint64          // application-defined flow identifier
	Bytes  uint32          // payload bytes / freed bytes / error code
	Flow   *flowstate.Flow // set for EvAccepted, EvConnected, EvClosed and EvAborted
}

// TX-request opcodes. The application side is untrusted (§3.3): a
// crashed or malicious app can hand Engine.PushTxCmd any bit pattern,
// so the fast path treats a request as wire input — it validates the
// opcode, the flow reference, and the byte count, and drops-and-counts
// anything malformed instead of acting on it.
const (
	// OpTx: Bytes of new payload were appended to the flow's transmit
	// buffer (§3.1 common-case send). The only valid opcode today.
	OpTx uint8 = 1
)

// TxCmd is one transmit request: "flow Flow has Bytes more to send".
// Applications push them through Engine.PushTxCmd and the slow path
// through Engine.KickFlow; both land on the owning core's one request
// ring.
type TxCmd struct {
	Op    uint8
	Flow  *flowstate.Flow
	Bytes uint32
}

// Context is the shared-memory attachment point of one application
// thread: an event queue per fast-path core (to avoid cross-core
// synchronization), plus a wakeup channel the application blocks on
// (the epoll/eventfd analogue). Its transmit requests go to the owning
// core's request ring (Engine.PushTxCmd), not to a queue of its own.
type Context struct {
	ID int

	rxq []*shmring.MPSC[Event] // per-core: that core (and, on index 0, the slow path) produces, app consumes

	// Wakeup is a broadcast: Wake puts a token in the channel of every
	// registered waiter. A context may have several application
	// goroutines blocked at once — per-connection readers sharing one
	// accept context — and one token shared by all loses wakeups: one
	// waiter consumes it, drains the event queue for everyone, and the
	// rest sleep forever. Each waiter therefore sleeps on a one-slot
	// channel of its own, recycled through idle so that neither Sleep
	// nor Wake allocates in steady state.
	wakeMu   sync.Mutex
	waiting  []chan struct{}
	idle     []chan struct{}
	sleepers atomic.Int32

	// spin is the waiters' poll-or-block rule (Engine.PollOnCredit): the
	// cores' idlePolicy, earning credit only from steps run inline for
	// this context. spinMu orders the goroutines sharing the context.
	spinMu sync.Mutex
	spin   idlePolicy

	// DroppedEvents counts events the fast path could not post because
	// the queue was full (the app will observe the data on its next
	// poll of the payload buffer).
	DroppedEvents atomic.Uint64

	// exited marks a context whose application has exited
	// (Engine.ExitContext); the slow path reaps it. It lives engine-side,
	// so an exit survives a slow-path crash.
	exited atomic.Bool
	// dead marks a context whose application the slow path has declared
	// crashed: its resources have been (or are being) reclaimed, and the
	// fast path acts on no request for its flows.
	dead atomic.Bool
}

// NewContext allocates a context spanning `cores` fast-path cores with
// the given per-core event-queue capacity.
func NewContext(id, cores, qcap int) *Context {
	c := &Context{ID: id}
	for i := 0; i < cores; i++ {
		c.rxq = append(c.rxq, shmring.NewMPSC[Event](qcap))
	}
	return c
}

// Cores returns the number of per-core event queues.
func (c *Context) Cores() int { return len(c.rxq) }

// EventQueueLen returns the occupancy of the context's per-core event
// (RX) queue toward the application (scrape-time gauge reads).
func (c *Context) EventQueueLen(core int) int { return c.rxq[core].Len() }

// PostEvent enqueues an event from core onto the context's RX queue and
// wakes the application if it is blocked. It reports false if the queue
// is full (the fast path informs the stack on a later packet, §3.1).
func (c *Context) PostEvent(core int, ev Event) bool {
	if !c.post(core, ev) {
		return false
	}
	c.Wake()
	return true
}

// post is PostEvent without the wake: the receive stage posts a flow's
// two events of a batch with one wake.
func (c *Context) post(core int, ev Event) bool {
	if c.dead.Load() {
		// The application is gone; nobody will ever poll this queue.
		return false
	}
	if !c.rxq[core].Enqueue(ev) {
		c.DroppedEvents.Add(1)
		return false
	}
	return true
}

// Wake unblocks every waiting application goroutine. The fast-path
// cost when nobody is blocked is a single atomic load.
func (c *Context) Wake() {
	if c.sleepers.Load() == 0 {
		return
	}
	c.wakeMu.Lock()
	for _, ch := range c.waiting {
		select {
		case ch <- struct{}{}:
		default: // already holds a token it has not consumed
		}
	}
	c.wakeMu.Unlock()
}

// Sleepers returns the number of application goroutines currently
// registered as blocked on the context (gauge reads, tests).
func (c *Context) Sleepers() int { return int(c.sleepers.Load()) }

// PollEvents drains up to len(out) events across the context's per-core
// queues, returning the count.
func (c *Context) PollEvents(out []Event) int {
	n := 0
	for _, q := range c.rxq {
		if n == len(out) {
			break
		}
		n += q.DequeueBatch(out[n:])
	}
	return n
}

// Sleep registers the caller as a blocked waiter and returns the
// channel the next Wake signals. The caller must re-poll once after
// calling Sleep and before blocking, to avoid lost wakeups, and must
// hand the channel back with exactly one Awake.
func (c *Context) Sleep() <-chan struct{} {
	c.sleepers.Add(1)
	c.wakeMu.Lock()
	var ch chan struct{}
	if n := len(c.idle); n > 0 {
		ch, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		ch = make(chan struct{}, 1)
	}
	c.waiting = append(c.waiting, ch)
	c.wakeMu.Unlock()
	return ch
}

// Awake deregisters the waiter Sleep gave ch to, once the application
// resumes polling. A token the waiter never consumed is discarded.
func (c *Context) Awake(ch <-chan struct{}) {
	c.wakeMu.Lock()
	for i, w := range c.waiting {
		if w == ch {
			last := len(c.waiting) - 1
			c.waiting[i] = c.waiting[last]
			c.waiting = c.waiting[:last]
			select {
			case <-w:
			default:
			}
			c.idle = append(c.idle, w)
			break
		}
	}
	c.wakeMu.Unlock()
	c.sleepers.Add(-1)
}

// Exited reports whether the context's application has exited.
func (c *Context) Exited() bool { return c.exited.Load() }

// MarkDead flags the context as belonging to a crashed application.
func (c *Context) MarkDead() { c.dead.Store(true) }

// Dead reports whether the slow path has declared this context's
// application crashed and reaped its resources.
func (c *Context) Dead() bool { return c.dead.Load() }
