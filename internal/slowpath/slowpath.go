// Package slowpath implements the TAS slow path (§3.2): connection
// control (ports, handshakes, teardown), the congestion-control loop
// that polls per-flow feedback from fast-path state every control
// interval — for the flows that have any; idle ones are parked off the
// tick — and writes back rate limits, retransmission-timeout detection, and the workload-proportionality monitor that scales
// fast-path cores with load (§3.4).
//
// In the paper the slow path is a separate thread communicating with
// applications over a UNIX-domain-socket-bootstrapped context queue; in
// this in-process reproduction, libtas calls the exported methods
// directly, which stand in for those slow-path context-queue commands
// (new_flow, listen, accept, close).
package slowpath

import (
	"errors"
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
	ErrClosed     = errors.New("slowpath: stack closed")
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

// listener is a registered listening port: the registration itself — the
// engine-side shared record a warm-restarted slow path reconstructs its
// listeners from — plus this instance's handshake state. Backlog bounds
// halfCount (in-flight handshakes) plus Pending (established connections
// the application has not yet accepted; shared with the libtas listener,
// which decrements it on Accept, and so living in the shared record too).
// All fields besides Pending are guarded by the owning stripe's lock.
type listener struct {
	*flowstate.ListenerEntry
	halfCount int

	// SYN-cookie pressure tracking (stripe-locked): synWinStart/synInWin
	// is a one-second SYN arrival window; cookieUntil keeps cookie mode
	// sticky briefly after the trigger so a sawtoothing flood doesn't
	// flap between stateful and stateless handshakes.
	synWinStart time.Time
	synInWin    int
	cookieUntil time.Time
}

// retry is a retransmission timer with exponential backoff: the next
// deadline, the interval that produced it, and how many times it has
// fired. The handshake, FIN and persist timers are each one of these;
// the zero value is a disarmed timer.
type retry struct {
	deadline time.Time
	rto      time.Duration
	attempts int
}

// startRetry arms a timer whose first firing is one rto from now.
func startRetry(now time.Time, rto time.Duration) retry {
	return retry{deadline: now.Add(rto), rto: rto}
}

func (r *retry) armed() bool            { return !r.deadline.IsZero() }
func (r *retry) due(now time.Time) bool { return !now.Before(r.deadline) }

// backoff counts one firing and re-arms at double the interval, capped
// at ceil when ceil is positive.
func (r *retry) backoff(now time.Time, ceil time.Duration) {
	r.attempts++
	r.rto *= 2
	if ceil > 0 && r.rto > ceil {
		r.rto = ceil
	}
	r.deadline = now.Add(r.rto)
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
	born    time.Time // handshake start, for the completion-latency histogram;
	// zero on cookie reconstructions (the stateless path kept no start time).
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
}

// closeEntry tracks a locally initiated teardown awaiting the peer's
// acknowledgement of our FIN, so lost FINs are retransmitted with
// backoff instead of leaving the peer half-closed forever.
type closeEntry struct {
	finSeq uint32
	rexmit retry

	// fw2 marks the entry as FIN_WAIT_2: our FIN is acknowledged but
	// the peer has not closed its direction. rexmit.deadline is then the
	// FinWait2Timeout expiry instead of a retransmission deadline. The
	// entry keeps its single timer-pool charge across the transition.
	fw2 bool
}

// Slowpath drives one TAS instance's control plane.
type Slowpath struct {
	eng *fastpath.Engine
	cfg Config

	// telem is the engine's telemetry hub (nil when off): the flow flight
	// recorder (handshake/teardown/cc events) and slow-path cycle
	// accounting (cc, timer, reaper modules).
	telem *telemetry.Telemetry

	// stripes shard the listener and half-open tables by local port
	// (see stripes.go); stripeSh maps a port hash onto a stripe index.
	stripes  []*stripe
	stripeSh uint

	// mu guards the remaining central state: the congestion map, the
	// FIN-retransmission map, and the reaper's clocks. These are
	// touched by the single event-loop goroutine plus occasional API
	// calls — they were never the SYN-flood bottleneck.
	mu      sync.Mutex
	cc      map[*flowstate.Flow]*ccEntry
	closing map[*flowstate.Flow]*closeEntry

	// The control set (control.go), guarded by mu: every cc entry is
	// either in active — the dense list the control tick walks — or on
	// the parked FIFO, which no tick touches. doomed is the tick's
	// scratch list of flows to abort once it has released mu.
	active     []*ccEntry
	parkedHead *ccEntry
	parkedTail *ccEntry
	parkedN    int
	doomed     []doomedFlow

	// portCtr drives ephemeral port allocation (32768 + ctr%32768);
	// atomic so concurrent Dials don't need any shared lock.
	portCtr atomic.Uint32

	excq    *shmring.MPSC[*protocol.Packet]
	excWake <-chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Fault harness (the control-plane counterpart of the app-layer
	// Kill/Stall harness): kill terminates the event loop without any
	// cooperative cleanup, stallC wedges it for a duration, and
	// panicNext makes the next event-loop tick panic. dead marks the
	// instance crashed so API calls fail fast with ErrDown.
	kill      chan struct{}
	killOnce  sync.Once
	stallC    chan time.Duration
	panicNext atomic.Bool
	dead      atomic.Bool

	// lastTick is the event loop's view of when it last ran; a gap much
	// larger than the control interval means the loop was stalled (GC
	// pause, fault-harness Stall) and wall-clock liveness comparisons
	// are unsafe until apps have had a chance to beat again.
	lastTick time.Time

	// ctr is the counter block (counters.go), shared with this instance's
	// successors.
	ctr *liveCounters

	// coresW is the core watchdog's per-core state; owned by the event
	// loop (coreSweep), so it needs no lock.
	coresW []coreWatch

	lastReap   time.Time // rate-limits the liveness sweep
	reapResume time.Time // post-stall/restart grace: treat as everyone's beat
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
		stripes:  newStripes(cfg.HandshakeStripes, cfg.Gov),
		stripeSh: stripeShift(cfg.HandshakeStripes),
		cc:       make(map[*flowstate.Flow]*ccEntry),
		closing:  make(map[*flowstate.Flow]*closeEntry),
		excq:     excq,
		excWake:  wake,
		stop:     make(chan struct{}),
		kill:     make(chan struct{}),
		stallC:   make(chan time.Duration, 1),
		coresW:   make([]coreWatch, eng.MaxCores()),
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
// exit so recovery can scan quiescent state.
func (s *Slowpath) Kill() {
	s.dead.Store(true)
	s.killOnce.Do(func() { close(s.kill) })
	s.wg.Wait()
}

// Down reports whether this instance has crashed (Kill or an event-loop
// panic).
func (s *Slowpath) Down() bool { return s.dead.Load() }

// Stall wedges the event loop for d: no exception draining, no control
// ticks, no heartbeats — a livelocked control plane rather than a dead
// one. The watchdog flags degraded mode if d exceeds the fast path's
// SlowPathTimeout; processing (and heartbeats) resume afterwards.
func (s *Slowpath) Stall(d time.Duration) {
	select {
	case s.stallC <- d:
	default: // a stall is already pending; keep it
	}
}

// InjectPanic makes the next event-loop tick panic. The loop's recover
// treats it as a crash — the instance is marked dead, heartbeats stop —
// demonstrating that a slow-path bug cannot take down packet service
// for established flows.
func (s *Slowpath) InjectPanic() { s.panicNext.Store(true) }

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
	scale := time.NewTicker(scaleInterval)
	defer scale.Stop()
	for {
		s.eng.SlowpathBeat()
		select {
		case <-s.stop:
			return
		case <-s.kill:
			return
		case d := <-s.stallC:
			time.Sleep(d) // wedged: no beats, no processing
			s.noteResume(time.Now())
		case <-s.excWake:
			s.drainExceptions()
			s.mu.Lock()
			s.drainActivations(s.eng.NowNanos())
			s.mu.Unlock()
		case <-ctrl.C:
			if s.panicNext.CompareAndSwap(true, false) {
				panic("slowpath: injected event-loop panic")
			}
			now := time.Now()
			// Detect that the loop itself was stalled (fault harness,
			// scheduler starvation): wall-clock-vs-heartbeat comparisons
			// are not meaningful across the gap, so open the reaper's
			// grace window instead of mass-reaping apps whose beats are
			// merely older than the stall.
			if !s.lastTick.IsZero() && now.Sub(s.lastTick) > s.stallGap() {
				s.noteResume(now)
			}
			s.lastTick = now
			// SYN-cookie key epochs advance on the engine-side jar so
			// they survive this instance's crash/restart.
			s.eng.Cookies.MaybeRotate(s.eng.NowNanos())
			s.drainExceptions()
			// Each control-plane module's share of the tick goes to the
			// slow-path cycle account (lap; nothing with telemetry off).
			t := s.lap(0, 0, 0)
			s.controlTick(s.eng.NowNanos())
			t = s.lap(telemetry.ModCC, t, 1)
			s.handshakeSweep()
			s.closeSweep()
			s.timeWaitSweep()
			t = s.lap(telemetry.ModTimer, t, 1)
			s.reapSweep()
			s.lap(telemetry.ModReaper, t, 1)
			s.governorTick()
			s.coreSweep(now)
		case <-scale.C:
			if !s.cfg.DisableCoreScaling {
				s.scaleLoop()
			}
		}
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

func (s *Slowpath) drainExceptions() {
	for {
		pkt, ok := s.excq.Dequeue()
		if !ok {
			return
		}
		s.handleException(pkt)
	}
}

// Listen registers a listening port delivering accept events to the
// given context with the given opaque listener id, using the configured
// default backlog.
func (s *Slowpath) Listen(port uint16, ctxID uint16, opaque uint64) error {
	_, err := s.ListenBacklog(port, ctxID, opaque, 0)
	return err
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
	st := s.stripeFor(port)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.listeners[port]; dup {
		return nil, ErrPortInUse
	}
	e := &flowstate.ListenerEntry{
		Port: port, CtxID: ctxID, Opaque: opaque, Backlog: backlog, Pending: new(atomic.Int32),
	}
	if !s.eng.Listeners.Insert(e) {
		return nil, ErrPortInUse
	}
	st.listeners[port] = &listener{ListenerEntry: e}
	return e.Pending, nil
}

// Unlisten removes a listener.
func (s *Slowpath) Unlisten(port uint16) {
	st := s.stripeFor(port)
	st.mu.Lock()
	delete(st.listeners, port)
	st.mu.Unlock()
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
		st := s.stripeFor(cand)
		st.mu.Lock()
		if st.listeners[cand] != nil {
			st.mu.Unlock()
			continue
		}
		if _, busy := st.half[key]; busy || s.eng.Table.Lookup(key) != nil ||
			s.eng.TimeWait.Lookup(key) != nil {
			// A TIME_WAIT tuple is still quarantined: picking it would
			// let old duplicates of the previous incarnation land in the
			// new connection's window. Take the next ephemeral port.
			st.mu.Unlock()
			continue
		}
		// Half-open pool admission: a capped pool refuses the dial with
		// backpressure instead of letting a connect storm fill memory.
		// Acquire both checks the cap and charges the slot; dropHalf is
		// the matching release.
		if g := s.cfg.Gov; g != nil {
			if err := g.Acquire(resource.PoolHalfOpen, 1); err != nil {
				st.mu.Unlock()
				return 0, err
			}
		}
		// Reserve the port under the stripe lock — no check-then-insert
		// window for a concurrent Dial to race into.
		now := time.Now()
		h := &halfOpen{
			key: key, iss: st.rng.Uint32(), ctxID: ctxID, opaque: opaque,
			rexmit: startRetry(now, s.cfg.HandshakeRTO), born: now,
		}
		st.half[key] = h
		st.mu.Unlock()
		s.sendHandshake(h)
		return cand, nil
	}
	return 0, ErrNoPorts
}

// Close initiates connection teardown: once the transmit buffer drains,
// a FIN goes out; the flow is removed when both directions have closed.
// The FIN is retransmitted with exponential backoff by closeSweep until
// the peer acknowledges it (or the retry budget aborts the flow).
func (s *Slowpath) Close(f *flowstate.Flow) {
	go func() {
		// Wait for the transmit buffer to drain (bounded).
		deadline := time.Now().Add(5 * time.Second)
		for {
			f.Lock()
			drained := f.TxBuf.Used() == 0
			aborted := f.Aborted
			f.Unlock()
			if aborted {
				return // already torn down by failure handling
			}
			if drained || time.Now().After(deadline) {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		f.Lock()
		alreadyClosed := f.FinSent
		if !alreadyClosed {
			f.FinSent = true
			// An unacknowledged FIN is control work: a parked flow goes
			// back on the tick.
			s.eng.ActivateFlow(f)
		}
		seq := f.SeqNo
		ack := f.AckNo
		f.Unlock()
		if !alreadyClosed {
			// The closing entry must exist before the FIN can be answered:
			// a peer that closes back at once sends the event loop through
			// handleFin → enterTimeWait → removeFlow, and an entry added
			// after that would have closeSweep quarantine (and charge) the
			// tuple a second time.
			s.mu.Lock()
			s.armClose(f, seq, false, time.Now())
			s.mu.Unlock()
			s.sendCtlFlow(f, protocol.FlagFIN|protocol.FlagACK, seq, ack, nil)
			recordFlow(f, telemetry.FEFinTx, seq, ack, 0, 0)
		}
		// From here the closing entry owns the lifecycle: closeSweep
		// retransmits the FIN until acknowledged, then finishes the
		// close — straight removal for a passive closer (the peer's FIN
		// came first), TIME_WAIT quarantine for an active one, or a
		// bounded FIN_WAIT_2 wait if the peer never closes its side.
	}()
}

// armClose registers f's locally initiated teardown with closeSweep,
// charged to the timer pool: awaiting the acknowledgement of our FIN
// (retransmitted from an initial timeout of several control intervals,
// floored so loopback tests don't spin), or — fw2 — already acknowledged
// and waiting out FinWait2Timeout for the peer's FIN. removeFlow is the
// release. Caller holds mu.
func (s *Slowpath) armClose(f *flowstate.Flow, finSeq uint32, fw2 bool, now time.Time) {
	e := &closeEntry{finSeq: finSeq, fw2: fw2}
	if fw2 {
		e.rexmit.deadline = now.Add(s.cfg.FinWait2Timeout)
	} else {
		e.rexmit = startRetry(now, max(4*s.cfg.ControlInterval, 20*time.Millisecond))
	}
	s.closing[f] = e
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
// path advertises the larger window on its next ack.
func (s *Slowpath) ResizeBuffers(f *flowstate.Flow, rxSize, txSize int) {
	f.Lock()
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
