// Package slowpath implements the TAS slow path (§3.2): connection
// control (ports, handshakes, teardown), the congestion-control loop
// that polls per-flow feedback from fast-path state every control
// interval — for the flows that have any; idle ones are parked off the
// tick — and writes back rate limits, retransmission-timeout
// detection, and the workload-proportionality monitor that scales
// fast-path cores with load (§3.4). Every deadline runs from the one
// control tick, and each pops only the timers that are due.
//
// In the paper the slow path is a separate thread communicating with
// applications over a UNIX-domain-socket-bootstrapped context queue; in
// this in-process reproduction, libtas calls the exported methods
// directly, which stand in for those slow-path context-queue commands
// (new_flow, listen, accept, close).
package slowpath

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/congestion"
	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/shmring"
	"repro/internal/telemetry"
)

// Errors returned by connection control.
var (
	ErrPortInUse  = errors.New("slowpath: port in use")
	ErrNoListener = errors.New("slowpath: connection refused")
	ErrNoPorts    = errors.New("slowpath: ephemeral ports exhausted")
	// ErrDown: the slow path has crashed (or been killed by the fault
	// harness) and cannot take control-plane work. Established flows
	// keep flowing on the fast path; Connect/Listen fail fast until a
	// warm restart (Recover) brings a fresh instance up.
	ErrDown = errors.New("slowpath: control plane down")
)

// Config is the service's one configuration (internal/config). The slow
// path reads the connection-control, liveness, admission and governor
// knobs, Gov and NewController; bare-slow-path tests with no core to
// watch set CoreTimeout negative.
type Config = config.Config

// stallIntervals control intervals without ack progress trigger a
// retransmission restart (§3.2).
const stallIntervals = 2

// scaleInterval is the core-scaling monitor's period (§3.4).
const scaleInterval = 10 * time.Millisecond

// closeDrainLimit bounds how long a requested close's FIN waits for the
// transmit buffer to drain before it is sent anyway.
const closeDrainLimit = 5 * time.Second

// listener is a registered listening port: the registration itself — the
// engine-side shared record a warm-restarted slow path reconstructs its
// listeners from — plus this instance's handshake state. Backlog bounds
// halfCount (in-flight handshakes) plus Pending (established connections
// the application has not yet accepted; shared with the libtas listener,
// which decrements it on Accept, and so living in the shared record too).
// All fields besides Pending are guarded by the handshake table's lock.
type listener struct {
	*flowstate.ListenerEntry
	halfCount int

	// SYN-cookie pressure tracking (engine-clock ns):
	// synWinStart/synInWin is a one-second SYN arrival window; cookieUntil
	// keeps cookie mode sticky briefly after the trigger so a sawtoothing
	// flood doesn't flap between stateful and stateless handshakes.
	synWinStart int64
	synInWin    int
	cookieUntil int64
}

// retry is a retransmission timer with exponential backoff: the next
// deadline (engine-clock ns), the interval that produced it, and how many
// times it has fired. The handshake, FIN and persist timers are each one
// of these; the zero value is a disarmed timer.
type retry struct {
	deadline int64
	rto      time.Duration
	attempts int
}

// startRetry arms a timer whose first firing is one rto from now.
func startRetry(now int64, rto time.Duration) retry {
	return retry{deadline: now + rto.Nanoseconds(), rto: rto}
}

func (r *retry) armed() bool        { return r.deadline != 0 }
func (r *retry) due(now int64) bool { return now >= r.deadline }

// backoff counts one firing and re-arms at double the interval, capped
// at ceil when ceil is positive.
func (r *retry) backoff(now int64, ceil time.Duration) {
	r.attempts++
	r.rto *= 2
	if ceil > 0 && r.rto > ceil {
		r.rto = ceil
	}
	r.deadline = now + r.rto.Nanoseconds()
}

// halfOpen is an in-progress handshake. rexmit is the SYN / SYN-ACK
// retransmission timer; once its attempts reach the configured retry cap
// the entry is reaped.
type halfOpen struct {
	key     protocol.FlowKey
	iss     uint32 // our initial sequence
	ctxID   uint16
	opaque  uint64
	passive bool // true: we sent SYNACK (accepting); false: we sent SYN
	peerISS uint32
	rexmit  retry
	lst     *listener // passive only: for backlog accounting
	mss     uint16    // cookie completions only: recovered MSS class
	born    int64     // handshake start (engine clock), for the completion-latency
	// histogram; zero on cookie reconstructions (the stateless path kept no start time).
}

// ccEntry is the slow path's per-flow congestion/timeout state.
type ccEntry struct {
	flow *flowstate.Flow
	ctrl congestion.RateController

	// Control-set membership (control.go): idx is the entry's slot in
	// Slowpath.active, or -1 while it is parked; prev/next link parked
	// entries in park order. lastTick is the engine-clock time of the
	// last visit (feedback is averaged over the time since); quiet counts
	// consecutive visits that found no work and left the rate unchanged;
	// kaBase is, for a parked entry, the time its keepalive idle clock
	// counts from.
	idx        int
	prev, next *ccEntry
	lastTick   int64
	quiet      int
	kaBase     int64

	lastUna    uint32
	stallTicks int           // visits without ack progress
	stalledFor time.Duration // the time those visits span
	// consecTimeouts counts back-to-back retransmission timeouts with
	// no intervening ack progress; it doubles the next timeout's wait
	// (exponential backoff) and triggers an abort past MaxRetransmits.
	consecTimeouts int
	txEwma         float64
	// lastRate is the most recent rate written to the flow's bucket, so
	// the flight recorder only logs rate-change events on actual change
	// (the controller returns a rate every interval).
	lastRate float64

	// Zero-window persist timer: while the peer advertises window 0 and
	// we hold data it replaces the retransmission timer (the stall is
	// flow control, not loss). Disarmed whenever the window is open.
	persist retry

	// Keepalive state: kaNext is the engine-clock nanosecond of the
	// next probe (0 = not probing); kaProbes counts unanswered probes
	// since the flow last went idle. Any received segment Touches the
	// flow, which resets both.
	kaNext   int64
	kaProbes int

	// Close supervision (closeTick): closeAt is when Close was called,
	// bounding the FIN's wait for the buffer to drain; fin retransmits the
	// FIN at finSeq or — fw2, once it is acked — is the FIN_WAIT_2
	// deadline. An armed fin holds one timers-pool charge (dropEntry).
	closeAt int64
	finSeq  uint32
	fin     retry
	fw2     bool
}

// Slowpath drives one TAS instance's control plane.
type Slowpath struct {
	eng *fastpath.Engine
	cfg Config

	// telem is the engine's telemetry hub (nil when off): the flow flight
	// recorder (handshake/teardown/cc events) and slow-path cycle
	// accounting (cc, timer, reaper modules).
	telem *telemetry.Telemetry

	// hs holds the listeners and half-open handshakes (handshake.go).
	hs hsTable

	// mu guards the control entries. These are touched by the single
	// event-loop goroutine plus occasional API calls.
	mu sync.Mutex
	cc map[*flowstate.Flow]*ccEntry

	// The control set (control.go), guarded by mu: every cc entry is
	// either in active — the dense list the control tick walks — or on
	// the parked FIFO, which no tick touches. ended is the tick's scratch
	// list of flows to tear down once it has released mu.
	active     []*ccEntry
	parkedHead *ccEntry
	parkedTail *ccEntry
	parkedN    int
	ended      []func()

	// portCtr drives ephemeral port allocation (32768 + ctr%32768);
	// atomic so concurrent Dials don't need any shared lock.
	portCtr atomic.Uint32

	excq    *shmring.MPSC[*protocol.Packet]
	excWake <-chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// kill terminates the event loop without any cooperative cleanup, as
	// a crash would (Kill). dead marks the instance crashed so API calls
	// fail fast with ErrDown.
	kill     chan struct{}
	killOnce sync.Once
	dead     atomic.Bool

	// ctr is the counter block (counters.go), shared with this instance's
	// successors.
	ctr *liveCounters

	// coresW is the core watchdog's per-core state; owned by the event
	// loop (coreSweep), so it needs no lock.
	coresW []coreWatch

	// lastScale is when the tick last ran the core-scaling monitor.
	lastScale int64
}

// New builds (but does not start) a slow path for the engine.
func New(eng *fastpath.Engine, cfg Config) *Slowpath {
	cfg.Fill()
	return newSlowpath(eng, cfg, new(liveCounters))
}

// Successor builds the instance that replaces s after a crash: same
// engine, same configuration, and the same counter block, so nothing
// s counted is lost or counted twice. Recover and Start it as for New.
func (s *Slowpath) Successor() *Slowpath { return newSlowpath(s.eng, s.cfg, s.ctr) }

func newSlowpath(eng *fastpath.Engine, cfg Config, ctr *liveCounters) *Slowpath {
	excq, wake := eng.Exceptions()
	return &Slowpath{
		eng: eng, cfg: cfg, ctr: ctr, telem: eng.Telemetry(),
		hs: hsTable{
			listeners: make(map[uint16]*listener),
			half:      make(map[protocol.FlowKey]*halfOpen),
			wait:      make([][]*halfOpen, cfg.HandshakeRetries+1),
			rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
		},
		cc:      make(map[*flowstate.Flow]*ccEntry),
		excq:    excq,
		excWake: wake,
		stop:    make(chan struct{}),
		kill:    make(chan struct{}),
		coresW:  make([]coreWatch, eng.MaxCores()),
	}
}

// Start launches the slow-path goroutine.
func (s *Slowpath) Start() {
	s.eng.SlowpathBeat()
	s.wg.Add(1)
	go s.run()
}

// Stop terminates the slow path cooperatively. Idempotent, and safe
// after Kill (the loop is already gone).
func (s *Slowpath) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Kill simulates a slow-path crash: the event loop terminates
// immediately with no cleanup — half-open handshakes, cc entries, and
// pending teardowns are simply abandoned, exactly as a crashed process
// would leave them. The shared state (flow table, buffers, buckets,
// listener registry) survives in the engine; heartbeats cease, so the
// fast path's watchdog enters degraded mode. Kill waits for the loop to
// exit, and for an API call past its liveness check (mu), so recovery
// scans quiescent state.
func (s *Slowpath) Kill() {
	s.dead.Store(true)
	s.killOnce.Do(func() { close(s.kill) })
	s.wg.Wait()
	s.mu.Lock()
	s.mu.Unlock()
}

// Down reports whether this instance has crashed (Kill or an event-loop
// panic).
func (s *Slowpath) Down() bool { return s.dead.Load() }

// run is the event loop. It beats once per iteration, and no iteration
// handles more than excBatch exceptions, so a flood cannot hold the beat
// back past the fast path's watchdog.
func (s *Slowpath) run() {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			// An event-loop panic is a slow-path crash, not a process
			// crash: contain it, mark the instance dead, and leave the
			// fast path serving established flows until a warm restart.
			s.dead.Store(true)
			s.ctr.Panics.Add(1)
		}
	}()
	ctrl := time.NewTicker(s.cfg.ControlInterval)
	defer ctrl.Stop()
	for {
		s.eng.SlowpathBeat()
		select {
		case <-s.stop:
			return
		case <-s.kill:
			return
		case <-s.excWake:
			s.drainExceptions()
			s.mu.Lock()
			s.drainActivations(s.eng.NowNanos())
			s.mu.Unlock()
			s.reapPending()
		case <-ctrl.C:
			s.eng.Fault(fastpath.FaultSlowTick, 0)
			s.tick(s.eng.NowNanos())
		}
	}
}

// tick is one control interval. Every deadline the slow path keeps —
// the control entries' timers, half-opens, TIME_WAIT, the core watchdog,
// the core-scaling period — is compared against its one engine-clock
// now, which tests pass directly to a slow path that was never started.
func (s *Slowpath) tick(now int64) {
	// SYN-cookie key epochs advance on the engine-side jar so they
	// survive this instance's crash/restart.
	s.eng.Cookies.MaybeRotate(now)
	s.drainExceptions()
	// Each control-plane module's share of the tick goes to the
	// slow-path cycle account (lap; nothing with telemetry off).
	t := s.lap(0, 0, 0)
	s.controlTick(now)
	t = s.lap(telemetry.ModCC, t, 1)
	s.handshakeSweep(now)
	s.timeWaitSweep(now)
	s.lap(telemetry.ModTimer, t, 1)
	s.reapPending()
	s.governorTick(now)
	s.coreSweep(now)
	if !s.cfg.DisableCoreScaling && now-s.lastScale >= scaleInterval.Nanoseconds() {
		s.lastScale = now
		s.scaleLoop()
	}
}

// lap reads the telemetry clock and charges the time since the previous
// reading, and items of work, to mod's slow-path cycle account (since 0
// starts the stopwatch and charges nothing). RefreshNow also keeps
// the cached coarse clock (flight-recorder timestamps) fresh once per
// tick even when the fast path is idle. Returns 0 with telemetry off.
func (s *Slowpath) lap(mod telemetry.Module, since int64, items uint64) int64 {
	telem := s.telem
	if telem == nil {
		return 0
	}
	now := telem.RefreshNow()
	if since != 0 {
		telem.Cycles.AddSlow(mod, now-since, items)
	}
	return now
}

// record logs a flight-recorder event for a 4-tuple that may not have
// flow state yet (handshake phase): the event lands in the ring the
// installed flow later adopts, so a trace covers SYN through reap.
// No-op when telemetry is off.
func (s *Slowpath) record(key protocol.FlowKey, kind telemetry.FlowEventKind, seq, ack uint32, aux uint64) {
	if s.telem == nil {
		return
	}
	s.telem.Recorder.Ring(key.String()).Record(kind, seq, ack, 0, aux)
}

// recordFlow logs a flight-recorder event on an installed flow's ring.
func recordFlow(f *flowstate.Flow, kind telemetry.FlowEventKind, seq, ack, bytes uint32, aux uint64) {
	if f.Rec != nil {
		f.Rec.Record(kind, seq, ack, bytes, aux)
	}
}

// excBatch bounds the exceptions one loop iteration handles. The loop
// beats between batches, so a flood the slow path needs longer than the
// fast path's watchdog timeout to drain does not read as an outage, and
// the control tick runs between batches instead of after the flood.
const excBatch = 32

// drainExceptions handles up to excBatch queued exceptions and rings the
// doorbell again if more remain, so the loop comes back for them.
func (s *Slowpath) drainExceptions() {
	for i := 0; i < excBatch; i++ {
		pkt, ok := s.excq.Dequeue()
		if !ok {
			return
		}
		s.handleException(pkt)
	}
	if s.excq.Len() > 0 {
		s.eng.WakeSlowpath()
	}
}

// ListenBacklog registers a listener with an explicit backlog bound
// (0 = the configured default). It returns the shared accept-queue
// depth gauge: the slow path increments it per delivered accept event,
// and the application side must decrement it as connections are
// accepted — the remaining headroom is what admission control grants
// new SYNs.
func (s *Slowpath) ListenBacklog(port uint16, ctxID uint16, opaque uint64, backlog int) (*atomic.Int32, error) {
	if s.dead.Load() {
		return nil, ErrDown
	}
	if backlog <= 0 {
		backlog = s.cfg.ListenBacklog
	}
	s.hs.mu.Lock()
	defer s.hs.mu.Unlock()
	if _, dup := s.hs.listeners[port]; dup {
		return nil, ErrPortInUse
	}
	e := &flowstate.ListenerEntry{
		Port: port, CtxID: ctxID, Opaque: opaque, Backlog: backlog, Pending: new(atomic.Int32),
	}
	if !s.eng.Listeners.Insert(e) {
		return nil, ErrPortInUse
	}
	s.hs.listeners[port] = &listener{ListenerEntry: e}
	return e.Pending, nil
}

// Unlisten removes a listener.
func (s *Slowpath) Unlisten(port uint16) {
	s.hs.mu.Lock()
	delete(s.hs.listeners, port)
	s.hs.mu.Unlock()
	s.eng.Listeners.Remove(port)
}

// Connect starts an active open toward the peer; the EvConnected event
// (carrying the flow) is posted to ctxID/opaque when the handshake
// completes. It returns the chosen local port.
func (s *Slowpath) Connect(peerIP protocol.IPv4, peerPort uint16, ctxID uint16, opaque uint64) (uint16, error) {
	if s.dead.Load() {
		return 0, ErrDown
	}
	if g := s.cfg.Gov; g != nil {
		// Fast-fail admission: an app already at its flow quota gets
		// backpressure here, before any handshake traffic; the
		// authoritative charge still happens at flow installation.
		if err := g.CheckApp(uint32(ctxID)); err != nil {
			return 0, err
		}
	}
	localIP := s.eng.Config().LocalIP
	for i := 0; i < 65536; i++ {
		cand := uint16(32768 + s.portCtr.Add(1)%32768)
		key := protocol.FlowKey{LocalIP: localIP, LocalPort: cand, RemoteIP: peerIP, RemotePort: peerPort}
		s.hs.mu.Lock()
		if _, busy := s.hs.half[key]; busy || s.hs.listeners[cand] != nil ||
			s.eng.Table.Lookup(key) != nil || s.eng.TimeWait.Lookup(key) != nil {
			// A TIME_WAIT tuple is still quarantined: picking it would
			// let old duplicates of the previous incarnation land in the
			// new connection's window. Take the next ephemeral port.
			s.hs.mu.Unlock()
			continue
		}
		// Half-open pool admission: a capped pool refuses the dial with
		// backpressure instead of letting a connect storm fill memory.
		// Acquire both checks the cap and charges the slot; dropHalf is
		// the matching release.
		if g := s.cfg.Gov; g != nil {
			if err := g.Acquire(resource.PoolHalfOpen, 1); err != nil {
				s.hs.mu.Unlock()
				return 0, err
			}
		}
		// Reserve the port under the table lock — no check-then-insert
		// window for a concurrent Dial to race into.
		now := s.eng.NowNanos()
		h := &halfOpen{
			key: key, iss: s.hs.rng.Uint32(), ctxID: ctxID, opaque: opaque,
			rexmit: startRetry(now, s.cfg.HandshakeRTO), born: now,
		}
		s.hs.addHalf(h)
		s.hs.mu.Unlock()
		s.sendHandshake(h)
		return cand, nil
	}
	return 0, ErrNoPorts
}

// Close initiates connection teardown. The request is recorded in shared
// flow state (CloseRequested), where a warm-restarted successor finds it;
// the FIN goes out at once if nothing is left to send, and otherwise from
// the control tick once the transmit buffer drains (closeTick), which then
// supervises the close to its end. Idempotent.
func (s *Slowpath) Close(f *flowstate.Flow) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.Lock()
	first := !f.CloseRequested && !f.Aborted
	if first {
		f.CloseRequested = true
		// A close in progress is control work: a parked flow goes back on
		// the tick — this instance's below, or a successor's from the ring.
		s.eng.ActivateFlow(f)
	}
	drained := f.TxBuf.Used() == 0
	f.Unlock()
	e := s.cc[f]
	if !first || e == nil || s.dead.Load() {
		return // already closing, torn down, or left to the successor
	}
	now := s.eng.NowNanos()
	e.closeAt = now
	if e.idx < 0 {
		s.unpark(e, now)
	}
	if drained {
		s.sendFin(e, now)
	}
}

// sendFin sends f's FIN, from Close or the tick, with its retransmission
// timer (and timers-pool charge) armed first: the peer's answer can reach
// the event loop before the send returns, and the close must already be
// supervised when it does. Caller holds mu.
func (s *Slowpath) sendFin(e *ccEntry, now int64) {
	f := e.flow
	f.Lock()
	if f.FinSent || f.Aborted {
		f.Unlock()
		return
	}
	f.FinSent = true
	seq, ack := f.SeqNo, f.AckNo
	f.Unlock()
	s.armFin(e, seq, now, false)
	recordFlow(f, telemetry.FEFinTx, seq, ack, 0, 0)
	s.sendCtlFlow(f, protocol.FlagFIN|protocol.FlagACK, seq, ack, nil)
}

// armFin arms e's FIN timer, charged to the timer pool: the
// retransmission timer for a FIN at finSeq (from an initial timeout of
// several control intervals, floored so loopback tests don't spin), or —
// fw2 — the FinWait2Timeout deadline of a FIN already acknowledged.
// dropEntry is the release. Caller holds mu.
func (s *Slowpath) armFin(e *ccEntry, finSeq uint32, now int64, fw2 bool) {
	e.finSeq, e.fw2 = finSeq, fw2
	if fw2 {
		e.fin.deadline = now + s.cfg.FinWait2Timeout.Nanoseconds()
	} else {
		e.fin = startRetry(now, max(4*s.cfg.ControlInterval, 20*time.Millisecond))
	}
	s.charge(resource.PoolTimers, 1)
}

// sendCtl emits a control segment for a 4-tuple that has no flow state:
// handshake segments (withMSS) and replies to stray ones.
func (s *Slowpath) sendCtl(key protocol.FlowKey, flags protocol.TCPFlags, seq, ack uint32, withMSS bool) {
	pkt := &protocol.Packet{
		SrcMAC: s.eng.Config().LocalMAC,
		SrcIP:  key.LocalIP, DstIP: key.RemoteIP,
		SrcPort: key.LocalPort, DstPort: key.RemotePort,
		Flags: flags, Seq: seq, Ack: ack,
		Window: uint16(s.cfg.RxBufSize / fastpath.WindowUnit),
		HasTS:  true, TSVal: s.eng.NowMicros(),
		ECN: protocol.ECNECT0,
	}
	if withMSS {
		pkt.MSSOpt = uint16(protocol.DefaultMSS)
	}
	s.eng.Output(pkt)
}

// sendCtlFlow emits a control segment on an installed flow, advertising
// its current receive window. payload is nil except for the one-byte
// persist and keepalive probes.
func (s *Slowpath) sendCtlFlow(f *flowstate.Flow, flags protocol.TCPFlags, seq, ack uint32, payload []byte) {
	f.Lock() // ResizeBuffers swaps the buffer under this lock
	window := uint16(f.RxBuf.Free() / fastpath.WindowUnit)
	f.Unlock()
	s.eng.Output(&protocol.Packet{
		SrcMAC: s.eng.Config().LocalMAC, DstMAC: f.PeerMAC,
		SrcIP: f.LocalIP, DstIP: f.PeerIP,
		SrcPort: f.LocalPort, DstPort: f.PeerPort,
		Flags: flags, Seq: seq, Ack: ack, Window: window,
		HasTS: true, TSVal: s.eng.NowMicros(),
		ECN:     protocol.ECNECT0,
		Payload: payload,
	})
}

// ResizeBuffers grows a flow's payload buffers at runtime (the paper's
// §4.1 future-work management command). Sizes round up to powers of two;
// shrinking is not supported. After growing the receive buffer the fast
// path advertises the larger window on its next ack. A removed flow is
// left alone: removeFlow returned its charges under the same lock, and a
// grow now would charge the pool for a flow nothing releases again.
func (s *Slowpath) ResizeBuffers(f *flowstate.Flow, rxSize, txSize int) {
	f.Lock()
	if f.Retired() {
		f.Unlock()
		return
	}
	if rxSize > f.RxBuf.Size() {
		rxSize = ceilPow2(rxSize)
		if s.growPayload(f, int64(rxSize-f.RxBuf.Size())) {
			f.RxBuf.Grow(rxSize)
		}
	}
	if txSize > f.TxBuf.Size() {
		txSize = ceilPow2(txSize)
		if s.growPayload(f, int64(txSize-f.TxBuf.Size())) {
			f.TxBuf.Grow(txSize)
		}
	}
	f.Unlock()
	// Tell the peer about the larger receive window promptly.
	s.eng.SendWindowUpdate(f)
	s.eng.KickFlow(f)
}

// growPayload asks the governor for extra payload-pool bytes before a
// buffer grows; a denied grow is skipped (the flow keeps its current
// buffer) rather than blowing past the pool cap. Reports whether the
// grow may proceed.
func (s *Slowpath) growPayload(f *flowstate.Flow, delta int64) bool {
	g := s.cfg.Gov
	if g == nil {
		return true
	}
	return g.GrowPayload(uint32(f.Charged), delta) == nil
}

func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
