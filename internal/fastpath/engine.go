package fastpath

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/shmring"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// NIC is the transmit side of the network attachment; the live fabric
// implements it.
type NIC interface {
	Output(pkt *protocol.Packet)
}

// WindowUnit is the advertised-window granularity in live mode: both TAS
// endpoints negotiate a window scale of 10, so the 16-bit window field
// counts KiB.
const WindowUnit = 1024

// stopTimeout bounds Engine.Stop against a wedged core: a goroutine
// stalled inside an iteration (fault harness or a real hang) never
// reaches its loop check, and shutdown must not inherit its fate. Past
// the deadline the goroutine is deliberately leaked — the process is
// exiting or the test harness owns the fallout either way.
const stopTimeout = 2 * time.Second

// cycleSampleEvery is the cycle-accounting sampling period: the run
// loop wall-times one iteration in this many (must be a power of two)
// and scales the measurement up, keeping clock reads off the common
// per-batch path. Item counts are exact; only the nanos are estimated.
const cycleSampleEvery = 64

// rttSampleEvery is the RTT-histogram sampling period: processAck
// observes the flow's smoothed RTT/RTTVAR into the telemetry LogHists
// on one in this many timestamped ACKs (power of two). The unsampled
// cost is a per-core non-atomic increment.
const rttSampleEvery = 64

// Config is the service's one configuration (internal/config). The
// engine reads the wiring (LocalIP, LocalMAC, Gov), MaxCores, RxRingSize,
// SlowPathTimeout, ChallengeAckPerSec and Telemetry; raw-engine tests
// with no slow path attached set SlowPathTimeout negative.
type Config = config.Config

// burstBytes is every rate bucket's burst capacity.
const burstBytes = 64 << 10

// CoreStats counts one fast-path core's activity.
type CoreStats struct {
	RxPackets     atomic.Uint64
	TxPackets     atomic.Uint64
	TxBytes       atomic.Uint64
	AcksSent      atomic.Uint64
	Exceptions    atomic.Uint64
	RxDrops       atomic.Uint64 // ring overflow
	BufFullDrop   atomic.Uint64 // receive payload buffer full
	BadDescDrop   atomic.Uint64 // malformed app→TAS queue descriptors dropped
	SynShed       atomic.Uint64 // SYNs shed: slow-path exception queue saturated
	SynShedDown   atomic.Uint64 // SYNs shed: slow path down (degraded mode)
	SynShedPress  atomic.Uint64 // SYNs shed: resource governor's shed-syn rung engaged
	ExcqDrop      atomic.Uint64 // exceptions dropped: exception queue full
	InactiveDrain atomic.Uint64 // packets drained on a deactivated core (lazy drain)
	OooAccepted   atomic.Uint64
	OooDropped    atomic.Uint64
	Frexmits      atomic.Uint64
	WrongCore     atomic.Uint64 // packets processed on a non-RSS core
	Blocks        atomic.Uint64 // parks: waits on the doorbell
	Panics        atomic.Uint64 // contained panics in the core's run loop
	Stranded      atomic.Uint64 // packets stuck in a failed core's queues, unrecoverable by drain
	BlindAckDrops atomic.Uint64 // segments dropped: ACK field fails RFC 5961 validation
}

type core struct {
	idx int
	// rxRing and kicks are multi-producer: the fabric delivers Input on
	// whatever goroutine the sending peer used, and kicks arrive from
	// the slow path, application threads, and the core-failure drain.
	// The consuming core stays lock-free.
	rxRing  *shmring.MPSC[*protocol.Packet]
	kicks   *shmring.MPSC[*flowstate.Flow] // slow-path retransmit/transmit kicks
	wake    chan struct{}
	asleep  atomic.Bool
	pending []*flowstate.Flow // rate-limited flows awaiting tokens
	// pendingAt is the earliest engine time (ns) at which a pending flow's
	// bucket holds enough tokens again; 0 when nothing is pending.
	pendingAt int64
	stats     CoreStats

	// now is the batch clock: engine time (ns since start) as of the top
	// of the run loop's current iteration. Everything the iteration does
	// per packet — the rate bucket, TSVal, the RTT sample, the challenge
	// limiter, last-activity stamps — reads this instead of the system
	// clock, so it can be stale by at most one loop iteration.
	now int64

	// Idle-time accounting (see idle.go), written by the core at state
	// transitions only: time spent polling empty queues and parked on
	// the doorbell. Whatever is left of wall time is work.
	// utilAt/utilIdle are the scaling monitor's previous sample.
	polled, parked   idleClock
	utilAt, utilIdle atomic.Int64

	// rttTicks drives the 1-in-rttSampleEvery RTT histogram sampling.
	// Only this core's run goroutine touches it, so it needs no atomics.
	rttTicks uint64

	// Data-plane failure domain (see corefault.go). beat is an
	// iteration counter, not a timestamp: stamping wall-clock time every
	// loop would put a 50-90ns clock read on the per-batch path, so the
	// core publishes a monotonically increasing count and the slow-path
	// watchdog tracks when it last changed. kill/stallC/panicNext are
	// the fault harness; exited flips (in launchCore's defer) when the
	// goroutine is provably gone — the gate for safely consuming the
	// core's single-consumer rings from outside. failed is the slow
	// path's verdict, mirrored into the RSS exclusion mask.
	beat      atomic.Uint64
	kill      chan struct{}
	killed    atomic.Bool
	stallC    chan time.Duration
	panicNext atomic.Bool
	exited    atomic.Bool
	failed    atomic.Bool
}

// Engine is the live fast path: MaxCores goroutines, per-core NIC rings,
// the flow table, RSS steering, rate buckets, and the exception path to
// the slow path.
type Engine struct {
	cfg Config
	nic NIC

	// telem is the service's telemetry hub (nil when telemetry is off),
	// built here once; the slow path, libtas and the facade read it
	// through Telemetry. It enables per-core cycle accounting; the flow
	// flight recorder rides on Flow.Rec and needs no engine state.
	telem *telemetry.Telemetry

	Table *flowstate.Table
	RSS   *flowstate.RSS

	// Listeners is the shared-memory listening-port registry. Like the
	// flow table it is authoritative state the slow path writes through,
	// so a warm-restarted slow path can reconstruct its listener map.
	Listeners *flowstate.ListenerTable

	// TimeWait is the 2MSL quarantine of recently-closed tuples. It
	// lives engine-side for the same reason Listeners does: flows in
	// TIME_WAIT have already had their buffers reclaimed, so the
	// quarantine (not the flow table) is the only record a warm-
	// restarted slow path has that a tuple's previous incarnation just
	// died. Quarantined tuples never appear in Table, so their segments
	// take the unknown-flow exception path to the slow path — TIME_WAIT
	// traffic is rare by construction and costs the fast path nothing.
	TimeWait *flowstate.TimeWaitTable

	// Cookies signs and validates SYN cookies. Engine-owned (not
	// slow-path state) so key epochs survive a slow-path warm restart:
	// a cookie SYN-ACK sent before a crash still validates on the ACK
	// that completes after recovery.
	Cookies *tcp.CookieJar

	// Challenge is the stack-global RFC 5961 challenge-ACK rate
	// limiter, shared by the slow path and every fast-path core. Nil
	// when challenge ACKs are disabled (ChallengeAckPerSec < 0).
	Challenge *tcp.AckLimiter

	cores []*core

	// contexts and buckets are slot registries: writers take mu and
	// publish a copy-on-write snapshot; the fast path reads the
	// snapshots without locks (per-packet lookups must not contend).
	// Slots freed by the application reaper are recycled (free lists),
	// so a churn of crashing apps does not grow the registries forever.
	mu         sync.Mutex
	contextsV  atomic.Value // []*Context; nil entries are free slots
	bucketsV   atomic.Value // []*Bucket; nil entries are free slots
	freeCtxIDs []int
	freeBkts   []uint32

	// Exception queue toward the slow path: every active core produces.
	excq     *shmring.MPSC[*protocol.Packet]
	slowWake chan struct{}

	// activations carries parked flows that have control work again
	// toward the slow path (see ActivateFlow); actOverflow records that a
	// push found the ring full, so the slow path rescans its parked list
	// instead of trusting the ring alone.
	activations *shmring.MPSC[*flowstate.Flow]
	actOverflow atomic.Bool

	// coarseClock caches nowNanos for per-packet last-activity stamps:
	// refreshed wherever the run loop already reads the clock (its
	// work/poll/park transitions) and by the slow path's heartbeat, so
	// stamping a flow costs one atomic load + store, never a clock read.
	// Staleness is bounded by the slow path's control interval.
	coarseClock atomic.Int64

	// gov is the unified resource governor (nil when ungoverned): Config.Gov,
	// or SetGovernor before Start. The fast path consults it only on
	// the exception path (SYN shedding under the shed-syn rung) and the
	// context registry charges slot occupancy to it — never per data
	// packet.
	gov atomic.Pointer[resource.Governor]

	// beforeSleep, when set (tests only, before Start), runs on a core's
	// goroutine after its last queue poll and before it publishes the
	// sleep flag — the window in which a producer's wake is not sent.
	beforeSleep func(core int)

	start   time.Time
	stopped atomic.Bool
	wg      sync.WaitGroup

	// Slow-path liveness (see watchdog.go): the slow path stamps
	// slowBeat from its event loop; the watchdog goroutine flips
	// degraded when the stamp goes stale. Fast-path cores only consult
	// the flag on the exception path, never per data packet.
	slowBeat    atomic.Int64 // unix nanos of the last slow-path heartbeat
	degraded    atomic.Bool
	outageStart atomic.Int64  // unix nanos when the current outage began
	outages     atomic.Uint64 // degraded-mode entries
	outageNanos atomic.Int64  // cumulative outage time (completed outages)
	outageHist  *telemetry.LogHist
	watchStop   chan struct{}
	stopOnce    sync.Once
}

// NewEngine builds the engine (cores are started by Start).
func NewEngine(nic NIC, cfg Config) *Engine {
	cfg.Fill()
	e := &Engine{
		cfg:       cfg,
		nic:       nic,
		Table:     flowstate.NewTable(),
		RSS:       flowstate.NewRSS(),
		Listeners: flowstate.NewListenerTable(),
		TimeWait:  flowstate.NewTimeWaitTable(),
		excq:      shmring.NewMPSC[*protocol.Packet](4096),
		// Drained every control interval: 4096 covers 4M idle→busy
		// edges per second at the default 1ms tick.
		activations: shmring.NewMPSC[*flowstate.Flow](4096),
		slowWake:    make(chan struct{}, 1),
		start:       time.Now(),
		watchStop:   make(chan struct{}),
	}
	e.Cookies = tcp.NewCookieJar(time.Now().UnixNano(), tcp.DefaultCookieRotate)
	if cfg.ChallengeAckPerSec > 0 {
		e.Challenge = tcp.NewAckLimiter(cfg.ChallengeAckPerSec)
	}
	if cfg.Telemetry.Enabled {
		e.telem = telemetry.New(cfg.Telemetry, cfg.MaxCores)
		e.outageHist = new(telemetry.LogHist)
	}
	e.gov.Store(cfg.Gov)
	e.RSS.SetLimit(cfg.MaxCores)
	e.contextsV.Store([]*Context(nil))
	e.bucketsV.Store([]*Bucket(nil))
	for i := 0; i < cfg.MaxCores; i++ {
		c := &core{
			idx:    i,
			rxRing: shmring.NewMPSC[*protocol.Packet](cfg.RxRingSize),
			kicks:  shmring.NewMPSC[*flowstate.Flow](1024),
			wake:   make(chan struct{}, 1),
			kill:   make(chan struct{}),
			stallC: make(chan time.Duration, 1),
		}
		c.parked.enter(0) // until its goroutine runs
		e.cores = append(e.cores, c)
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Telemetry returns the telemetry hub, or nil when telemetry is off.
func (e *Engine) Telemetry() *telemetry.Telemetry { return e.telem }

// NowMicros returns microseconds since engine start (TCP timestamp
// clock).
func (e *Engine) NowMicros() uint32 { return uint32(time.Since(e.start).Microseconds()) }

func (e *Engine) nowNanos() int64 { return time.Since(e.start).Nanoseconds() }

// nowMicros is the batch clock on the TCP timestamp scale.
func (c *core) nowMicros() uint32 { return uint32(c.now / 1000) }

// CoarseNanos returns the cached engine clock (nanos since start),
// refreshed by run-loop state transitions and slow-path heartbeats.
// Cheap enough for per-packet stamps; staleness is bounded by the
// control interval.
func (e *Engine) CoarseNanos() int64 { return e.coarseClock.Load() }

// refreshCoarse updates the cached engine clock and returns it.
func (e *Engine) refreshCoarse() int64 {
	n := e.nowNanos()
	e.coarseClock.Store(n)
	return n
}

// tick reads the clock into core c's batch clock (and the cached engine
// clock) and returns it.
func (e *Engine) tick(c *core) int64 {
	c.now = e.refreshCoarse()
	return c.now
}

// NowNanos returns nanoseconds since engine start — the clock the
// challenge-ACK limiter and cookie-rotation epochs run on, shared by
// fast- and slow-path callers so their rate windows agree.
func (e *Engine) NowNanos() int64 { return e.nowNanos() }

// Start launches the fast-path core goroutines and, when a slow-path
// timeout is configured, the heartbeat watchdog.
func (e *Engine) Start() {
	for _, c := range e.cores {
		e.launchCore(c)
	}
	if e.cfg.SlowPathTimeout > 0 {
		// Seed the beat so a slow path that never starts still trips the
		// watchdog after one full timeout rather than instantly.
		e.SlowpathBeat()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.watchSlowpath()
		}()
	}
}

// Stop terminates the cores and waits for them, bounded by stopTimeout:
// a core wedged mid-iteration (StallCore, or a genuine hang) would
// otherwise make shutdown hang with it.
func (e *Engine) Stop() {
	e.stopped.Store(true)
	e.stopOnce.Do(func() { close(e.watchStop) })
	for _, c := range e.cores {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(stopTimeout):
	}
}

// MaxCores returns the configured maximum core count.
func (e *Engine) MaxCores() int { return len(e.cores) }

// ActiveCores returns the number of cores currently receiving RSS
// traffic.
func (e *Engine) ActiveCores() int { return e.RSS.Cores() }

// SetActiveCores re-steers RSS to n cores (the slow path's scaling
// decision, §3.4: eager RSS update, lazy drain). Every core is woken —
// not just the newly active set — so a core that was just steered away
// from drains the packets already sitting in its receive ring promptly
// instead of waiting out its park.
func (e *Engine) SetActiveCores(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(e.cores) {
		n = len(e.cores)
	}
	e.RSS.SetCores(n)
	for i := range e.cores {
		e.wakeCore(i)
	}
}

// Stats returns the per-core statistics.
func (e *Engine) Stats(core int) *CoreStats { return &e.cores[core].stats }

// Ring-depth accessors for the latency observatory's tas_ring_depth
// gauges. All reads are the rings' approximate lock-free Len/Cap —
// scrape-time only, never on the packet path.

// RxRingDepth returns core i's NIC receive ring occupancy and capacity.
func (e *Engine) RxRingDepth(i int) (depth, capacity int) {
	c := e.cores[i]
	return c.rxRing.Len(), c.rxRing.Cap()
}

// KickRingDepth returns core i's slow-path kick ring occupancy and
// capacity.
func (e *Engine) KickRingDepth(i int) (depth, capacity int) {
	c := e.cores[i]
	return c.kicks.Len(), c.kicks.Cap()
}

// ExcqDepth returns the exception-queue occupancy and capacity.
func (e *Engine) ExcqDepth() (depth, capacity int) {
	return e.excq.Len(), e.excq.Cap()
}

// SetGovernor installs the resource governor. Call before Start; the
// slow path and libtas read it through Governor().
func (e *Engine) SetGovernor(g *resource.Governor) { e.gov.Store(g) }

// Governor returns the installed resource governor (nil = ungoverned).
func (e *Engine) Governor() *resource.Governor { return e.gov.Load() }

// RegisterContext adds an application context and returns its id,
// reusing a slot freed by a previous UnregisterContext if one exists.
func (e *Engine) RegisterContext(ctx *Context) uint16 {
	if g := e.gov.Load(); g != nil {
		g.Charge(resource.PoolContexts, 1)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.contextsV.Load().([]*Context)
	if n := len(e.freeCtxIDs); n > 0 {
		id := e.freeCtxIDs[n-1]
		e.freeCtxIDs = e.freeCtxIDs[:n-1]
		ns := append([]*Context(nil), old...)
		ns[id] = ctx
		ctx.ID = id
		e.contextsV.Store(ns)
		return uint16(id)
	}
	ctx.ID = len(old)
	e.contextsV.Store(append(append([]*Context(nil), old...), ctx))
	return uint16(ctx.ID)
}

// UnregisterContext releases a context's slot for reuse — the slow-path
// reaper calls this after reclaiming a dead application's flows, so the
// slot must no longer be reachable through live flow state.
func (e *Engine) UnregisterContext(ctx *Context) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.contextsV.Load().([]*Context)
	if ctx.ID < 0 || ctx.ID >= len(old) || old[ctx.ID] != ctx {
		return
	}
	ns := append([]*Context(nil), old...)
	ns[ctx.ID] = nil
	e.contextsV.Store(ns)
	e.freeCtxIDs = append(e.freeCtxIDs, ctx.ID)
	if g := e.gov.Load(); g != nil {
		g.Charge(resource.PoolContexts, -1)
		g.DropApp(uint32(ctx.ID))
	}
}

// ContextByID returns a registered context (nil if out of range or the
// slot has been freed).
func (e *Engine) ContextByID(id uint16) *Context {
	ctxs := e.contextsV.Load().([]*Context)
	if int(id) >= len(ctxs) {
		return nil
	}
	return ctxs[id]
}

// Contexts returns the current context registry snapshot (entries may
// be nil where slots are free). Used by the slow path's liveness sweep.
func (e *Engine) Contexts() []*Context {
	return e.contextsV.Load().([]*Context)
}

// AllocBucket creates a rate bucket and returns its index (the slow
// path allocates one per established flow), reusing a freed slot when
// one exists.
func (e *Engine) AllocBucket() uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.bucketsV.Load().([]*Bucket)
	if n := len(e.freeBkts); n > 0 {
		i := e.freeBkts[n-1]
		e.freeBkts = e.freeBkts[:n-1]
		ns := append([]*Bucket(nil), old...)
		ns[i] = NewBucket(burstBytes)
		e.bucketsV.Store(ns)
		return i
	}
	e.bucketsV.Store(append(append([]*Bucket(nil), old...), NewBucket(burstBytes)))
	return uint32(len(old))
}

// FreeBucket returns a rate bucket slot to the free pool (flow
// teardown by the application reaper).
func (e *Engine) FreeBucket(i uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.bucketsV.Load().([]*Bucket)
	if int(i) >= len(old) || old[i] == nil {
		return
	}
	ns := append([]*Bucket(nil), old...)
	ns[i] = nil
	e.bucketsV.Store(ns)
	e.freeBkts = append(e.freeBkts, i)
}

// Bucket returns the rate bucket at index i (nil if out of range).
func (e *Engine) Bucket(i uint32) *Bucket {
	bks := e.bucketsV.Load().([]*Bucket)
	if int(i) >= len(bks) {
		return nil
	}
	return bks[i]
}

// CoreForFlow returns the fast-path core a flow's packets steer to.
func (e *Engine) CoreForFlow(f *flowstate.Flow) int {
	return e.RSS.CoreFor(protocol.FlowHash(f.LocalIP, f.LocalPort, f.PeerIP, f.PeerPort))
}

// Output transmits a packet via the NIC (used by the slow path for
// control packets).
func (e *Engine) Output(pkt *protocol.Packet) { e.nic.Output(pkt) }

// Input delivers a received packet into the fast path (called by the
// NIC/fabric). Steering follows the RSS redirection table. The index is
// clamped: a steering table must never be able to crash the input path,
// and the fabric delivers synchronously — a panic here would unwind
// into the sending peer's core goroutine.
func (e *Engine) Input(pkt *protocol.Packet) {
	pkt.AssertLive()
	idx := e.RSS.CoreForPacket(pkt)
	if idx < 0 || idx >= len(e.cores) {
		idx = 0
	}
	c := e.cores[idx]
	if !c.rxRing.Enqueue(pkt) {
		c.stats.RxDrops.Add(1)
		return
	}
	e.wakeCoreS(c)
}

// KickFlow asks the owning core to run transmission for a flow (used by
// the slow path for retransmission restarts and by libtas after
// appending payload when the tx queue was full).
func (e *Engine) KickFlow(f *flowstate.Flow) {
	c := e.cores[e.CoreForFlow(f)]
	if c.kicks.Enqueue(f) {
		e.wakeCoreS(c)
	}
}

// ActivateFlow puts a parked flow back on the slow path's control tick:
// the flow is queued on the activation ring and its park flag cleared.
// The caller holds the flow spinlock and has just given the flow control
// work (bytes to send, a FIN to supervise). A no-op for a flow that is
// not parked. If the ring is full the flag stays set — the flow is still
// consistently parked — and the overflow mark makes the slow path's next
// tick find it by rescanning its parked list.
func (e *Engine) ActivateFlow(f *flowstate.Flow) {
	if !f.Parked {
		return
	}
	if e.activations.Enqueue(f) {
		f.Parked = false
	} else {
		e.actOverflow.Store(true)
	}
}

// TakeActivation dequeues one flow from the activation ring (slow-path
// side; single consumer).
func (e *Engine) TakeActivation() (*flowstate.Flow, bool) { return e.activations.Dequeue() }

// ActivationsLen returns the activation ring's occupancy.
func (e *Engine) ActivationsLen() int { return e.activations.Len() }

// TakeActivationOverflow reports, and clears, whether an activation was
// refused by a full ring since the last call.
func (e *Engine) TakeActivationOverflow() bool {
	return e.actOverflow.Load() && e.actOverflow.Swap(false)
}

// PushTxCmd routes a TX command from a context to the owning core and
// wakes it. It reports false if the queue is full or the descriptor is
// obviously malformed (nil flow).
func (e *Engine) PushTxCmd(ctx *Context, cmd TxCmd) bool {
	if cmd.Flow == nil {
		return false
	}
	ci := e.CoreForFlow(cmd.Flow)
	if !ctx.PushTx(ci, cmd) {
		return false
	}
	e.wakeCore(ci)
	return true
}

// lockValidTxCmd validates one app→TAS queue descriptor before the fast
// path acts on it. Applications are untrusted (§3.3): a crashed or
// malicious app can enqueue arbitrary bit patterns, so a descriptor
// must carry a known opcode, reference a flow that is actually
// installed in the flow table with intact buffers, and claim a byte
// count that could possibly be buffered. Anything else is dropped and
// counted — never acted on, never a panic. A valid descriptor's flow is
// returned locked — the caller transmits under that lock anyway, and the
// buffer size must be read under it (ResizeBuffers grows the buffer
// there).
func (e *Engine) lockValidTxCmd(c *core, cmd TxCmd) bool {
	f := cmd.Flow
	if cmd.Op == OpTx && f != nil && f.RxBuf != nil && f.TxBuf != nil && e.Table.Lookup(f.Key()) == f {
		f.Lock()
		if int64(cmd.Bytes) <= int64(f.TxBuf.Size()) {
			return true
		}
		f.Unlock()
	}
	c.stats.BadDescDrop.Add(1)
	return false
}

// Exceptions returns the exception queue (slow-path side) and the wake
// channel signalled when it becomes non-empty.
func (e *Engine) Exceptions() (*shmring.MPSC[*protocol.Packet], <-chan struct{}) {
	return e.excq, e.slowWake
}

// toSlowPath forwards an exception packet. When the slow path's
// exception queue saturates, new-connection attempts (bare SYNs) are
// shed first — admission control under overload: established flows'
// exceptions keep their queue slots, and a shed peer simply
// retransmits its SYN later (§3.2: the slow path is the control-plane
// bottleneck, so it protects itself by refusing new work, not by
// growing an unbounded backlog).
func (e *Engine) toSlowPath(c *core, pkt *protocol.Packet) {
	if pkt.Flags.Has(protocol.FlagSYN) && !pkt.Flags.Has(protocol.FlagACK) {
		// Degraded mode: nobody is draining the exception queue, so a
		// new-connection attempt cannot succeed — shed it immediately
		// rather than letting SYNs squeeze out the established flows'
		// exceptions still queued for the restarted slow path.
		if e.degraded.Load() {
			c.stats.SynShedDown.Add(1)
			return
		}
		if e.excq.Len() >= e.excq.Cap()*3/4 {
			c.stats.SynShed.Add(1)
			return
		}
		// Shed-syn rung: the resource governor has climbed past forcing
		// cookies — pools are still filling, so new connections are
		// refused at the earliest, cheapest point. Established flows'
		// exceptions pass untouched.
		if g := e.gov.Load(); g != nil && g.Level() >= resource.LevelShedSyn {
			c.stats.SynShedPress.Add(1)
			g.NoteShed(resource.LevelShedSyn)
			return
		}
	}
	c.stats.Exceptions.Add(1)
	if e.excq.Enqueue(pkt) {
		select {
		case e.slowWake <- struct{}{}:
		default:
		}
	} else {
		c.stats.ExcqDrop.Add(1)
	}
}

func (e *Engine) wakeCore(i int) { e.wakeCoreS(e.cores[i]) }

// Nudge wakes fast-path core i if it is blocked (fault-harness use:
// make cores notice queue writes that bypass the normal kick paths).
func (e *Engine) Nudge(i int) {
	if i >= 0 && i < len(e.cores) {
		e.wakeCore(i)
	}
}

func (e *Engine) wakeCoreS(c *core) {
	if c.asleep.Load() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// run is one fast-path core's main loop: poll NIC ring, slow-path
// kicks, context TX queues, and rate-limited retries. Between work the
// core polls while it holds polling credit and parks on its doorbell
// otherwise (§3.4 blocking with notifications; idlePolicy is the rule).
func (e *Engine) run(c *core) {
	var pktBatch [64]*protocol.Packet
	var cmdBatch [64]TxCmd
	// Cycle accounting (when telemetry is on) counts items on every
	// batch but only times one loop in cycleSampleEvery, scaling the
	// measured nanos back up — an unbiased estimate over thousands of
	// batches. System clock reads cost ~50-90ns on machines without a
	// fast vDSO time source; timing every batch measured ~30% of
	// fast-path CPU and pushed echo RPC latency up ~50%. The sampled
	// reads double as the publisher of the telemetry hub's cached
	// coarse clock (flight-recorder timestamps).
	telem := e.telem
	var loops uint32
	var t0 int64
	// The kill channel is captured once: ReviveCore installs a fresh
	// channel for the next incarnation, and this goroutine must keep
	// watching the one that belongs to it.
	kill := c.kill
	// One timer serves every park of this core: the watchdog beat, or
	// the earliest pacing retry when flows are waiting for tokens.
	parkTimer := time.NewTimer(parkBeat)
	defer parkTimer.Stop()
	// The clock is read once per loop iteration, never per packet: at the
	// top of an iteration that follows work, and where an idle core
	// changes state — one idle poll to the next, park to resume.
	idle := idlePolicy{mark: e.tick(c)}
	working := false // the stretch since idle.mark did work
	// A core whose goroutine is not running counts as parked.
	c.parked.leave(idle.mark)
	defer func() { c.parked.enter(e.nowNanos()) }()
	for !e.stopped.Load() {
		// Heartbeat: one atomic add per iteration (no clock read — see
		// the field comment). The slow-path core watchdog decides
		// staleness by watching the count stop advancing.
		c.beat.Add(1)

		// Fault harness (corefault.go). Kill exits the loop as a crash
		// would — without draining queues or announcing anything; stall
		// freezes the goroutine mid-iteration; panicNext exercises the
		// launchCore containment path.
		if c.killed.Load() {
			return
		}
		select {
		case d := <-c.stallC:
			time.Sleep(d)
		default:
		}
		if c.panicNext.CompareAndSwap(true, false) {
			panic("fastpath: injected core panic")
		}

		if working {
			// Work takes time; an idle iteration arrives here straight
			// from the poll or park that just read the clock.
			c.now = e.nowNanos()
		}

		did := 0
		loops++
		sampled := telem != nil && loops&(cycleSampleEvery-1) == 0

		// NIC receive ring.
		timed := sampled && c.rxRing.Len() > 0
		if timed {
			t0 = telem.RefreshNow()
		}
		n := c.rxRing.DequeueBatch(pktBatch[:])
		for i := 0; i < n; i++ {
			e.processRx(c, pktBatch[i])
		}
		did += n
		if n > 0 && telem != nil {
			var nanos int64
			if timed {
				nanos = (telem.RefreshNow() - t0) * cycleSampleEvery
			}
			telem.Cycles.AddFast(c.idx, telemetry.ModRx, nanos, uint64(n))
		}

		// Slow-path kicks, context TX queues, rate-limit retries.
		timed = sampled &&
			(c.kicks.Len() > 0 || len(c.pending) > 0 || e.ctxTxPending(c))
		if timed {
			t0 = telem.RefreshNow()
		}
		txWork := 0

		for {
			f, ok := c.kicks.Dequeue()
			if !ok {
				break
			}
			f.Lock()
			e.transmit(c, f)
			f.Unlock()
			txWork++
		}

		// Context TX queues assigned to this core.
		txWork += e.drainCtxTx(c, cmdBatch[:])

		// Rate-limited flows waiting for tokens.
		txWork += e.retryPending(c)

		did += txWork
		if txWork > 0 && telem != nil {
			var nanos int64
			if timed {
				nanos = (telem.RefreshNow() - t0) * cycleSampleEvery
			}
			telem.Cycles.AddFast(c.idx, telemetry.ModTx, nanos, uint64(txWork))
		}

		if did > 0 {
			working = true
			continue
		}
		if working {
			working = false
			idle.worked(c.now)
		}
		if idle.mayPoll() {
			// Busy-poll (dedicating the CPU, the paper's design) but
			// yield the scheduler slot so application goroutines run on
			// shared machines. The yield belongs to the polled stretch:
			// time other goroutines take is credit spent.
			c.polled.enter(idle.mark)
			runtime.Gosched()
			now := e.tick(c)
			idle.polled(now)
			c.polled.leave(now)
			continue
		}

		// Park until the doorbell rings (§3.4: cores that receive no
		// packets automatically block and are de-scheduled).
		if e.beforeSleep != nil {
			e.beforeSleep(c.idx)
		}
		c.asleep.Store(true)
		// Re-check every queue this loop polls after publishing the sleep
		// flag to avoid a lost wakeup: a producer that enqueued before the
		// store saw asleep == false and rang no doorbell.
		if c.rxRing.Len() > 0 || c.kicks.Len() > 0 || e.ctxTxPending(c) {
			c.asleep.Store(false)
			continue
		}
		d := parkBeat
		if len(c.pending) > 0 {
			// Flows are waiting for rate tokens: sleep no longer than the
			// first of them needs.
			d = min(d, time.Duration(c.pendingAt-idle.mark))
		}
		c.stats.Blocks.Add(1)
		c.parked.enter(idle.mark)
		parkTimer.Reset(d)
		select {
		case <-c.wake:
		case <-kill:
		case <-parkTimer.C:
		}
		if !parkTimer.Stop() {
			select {
			case <-parkTimer.C:
			default:
			}
		}
		c.asleep.Store(false)
		now := e.tick(c)
		idle.parked(now)
		c.parked.leave(now)
	}
}

// drainCtxTx consumes the TX descriptor queues every registered
// context aimed at core c, validating each descriptor before acting on
// it. Dead contexts (reaped applications) and free slots are skipped.
func (e *Engine) drainCtxTx(c *core, cmdBatch []TxCmd) int {
	ctxs := e.contextsV.Load().([]*Context)
	did := 0
	for _, ctx := range ctxs {
		if ctx == nil || ctx.Dead() || c.idx >= ctx.Cores() {
			continue
		}
		k := ctx.txq[c.idx].DequeueBatch(cmdBatch)
		for i := 0; i < k; i++ {
			cmd := cmdBatch[i]
			if !e.lockValidTxCmd(c, cmd) {
				continue
			}
			e.transmit(c, cmd.Flow)
			cmd.Flow.Unlock()
		}
		did += k
	}
	return did
}

// ctxTxPending reports whether any live context has TX descriptors
// queued for core c: one atomic length load per context, gating the
// cycle-accounting clock reads in the run loop. A descriptor enqueued
// between this check and the drain is still transmitted — it just goes
// unattributed for one batch.
func (e *Engine) ctxTxPending(c *core) bool {
	ctxs := e.contextsV.Load().([]*Context)
	for _, ctx := range ctxs {
		if ctx == nil || ctx.Dead() || c.idx >= ctx.Cores() {
			continue
		}
		if ctx.txq[c.idx].Len() > 0 {
			return true
		}
	}
	return false
}

// retryPending re-attempts transmission for rate-limited flows and
// returns how many of them sent something: a retry the bucket refused
// again is not work, and must not keep the core out of its idle path.
func (e *Engine) retryPending(c *core) int {
	if len(c.pending) == 0 {
		return 0
	}
	pend := c.pending
	c.pending = c.pending[:0]
	c.pendingAt = 0
	did := 0
	for _, f := range pend {
		sent := c.stats.TxPackets.Load()
		f.Lock()
		e.transmit(c, f)
		f.Unlock()
		if c.stats.TxPackets.Load() != sent {
			did++
		}
	}
	return did
}

// DropStats aggregates the engine's shed/drop counters across cores and
// contexts — every cause that makes TAS refuse work instead of growing
// an unbounded backlog or corrupting state. A field's `drop` tag is the
// cause's one name: the cause label of its tas_drops_total series and
// what scenario drop-cause assertions call it; `help` completes the
// series' help text.
type DropStats struct {
	RxRingFull   uint64 `drop:"rx_ring_full" help:"NIC receive ring overflow."`
	RxBufFull    uint64 `drop:"rx_buf_full" help:"Per-flow receive payload buffer full."`
	BadDesc      uint64 `drop:"bad_desc" help:"Malformed app-to-TAS queue descriptors."`
	SynShed      uint64 `drop:"syn_shed" help:"SYNs shed by slow-path admission control."`
	SynShedDown  uint64 `drop:"syn_shed_down" help:"SYNs shed because the slow path is down (degraded mode)."`
	SynShedPress uint64 `drop:"syn_shed_pressure" help:"SYNs shed by the resource-pressure ladder (rung 2)."`
	ExcqFull     uint64 `drop:"excq_full" help:"Exception queue overflow."`
	EventsLost   uint64 `drop:"events_lost" help:"Context event-queue overflow."`
	OooDropped   uint64 `drop:"ooo_dropped" help:"Out-of-order segments outside the tracked interval."`
	CoreStranded uint64 `drop:"core_stranded" help:"Packets stranded in a failed core's queues (stalled core, not drainable)."`
	BlindAck     uint64 `drop:"blind_ack" help:"Blind-injection ACKs rejected by RFC 5961 validation."`
}

// Drops returns the aggregated drop counters.
func (e *Engine) Drops() DropStats {
	var d DropStats
	for _, c := range e.cores {
		d.RxRingFull += c.stats.RxDrops.Load()
		d.RxBufFull += c.stats.BufFullDrop.Load()
		d.BadDesc += c.stats.BadDescDrop.Load()
		d.SynShed += c.stats.SynShed.Load()
		d.SynShedDown += c.stats.SynShedDown.Load()
		d.SynShedPress += c.stats.SynShedPress.Load()
		d.ExcqFull += c.stats.ExcqDrop.Load()
		d.OooDropped += c.stats.OooDropped.Load()
		d.CoreStranded += c.stats.Stranded.Load()
		d.BlindAck += c.stats.BlindAckDrops.Load()
	}
	for _, ctx := range e.Contexts() {
		if ctx != nil {
			d.EventsLost += ctx.DroppedEvents.Load()
		}
	}
	return d
}

// CoreIdleNanos returns the nanoseconds core i has spent parked on its
// doorbell and polling empty queues since the engine started — the two
// ways a core is not working.
func (e *Engine) CoreIdleNanos(i int) (parked, polled int64) {
	c, now := e.cores[i], e.nowNanos()
	return c.parked.total(now), c.polled.total(now)
}

// Utilization returns the fraction of wall time core coreIdx spent
// working since the last call, for the slow path's scaling monitor:
// whatever was neither parked nor polling empty queues. A core whose
// goroutine is not running reports 0.
func (e *Engine) Utilization(coreIdx int) float64 {
	c := e.cores[coreIdx]
	now := e.nowNanos()
	idle := c.parked.total(now) + c.polled.total(now)
	wall := now - c.utilAt.Swap(now)
	idle -= c.utilIdle.Swap(idle)
	if wall <= 0 {
		return 0
	}
	return min(max(1-float64(idle)/float64(wall), 0), 1)
}
