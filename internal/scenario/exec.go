package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	tas "repro"
	"repro/internal/apps/echo"
	"repro/internal/fastpath"
	"repro/internal/faultinject"
	"repro/internal/flowstate"
)

// RunOptions tunes one execution (not part of the deterministic spec).
type RunOptions struct {
	// Metrics includes the server's telemetry registry in the report.
	Metrics bool
	// Log, when non-nil, receives a progress narration of the run.
	Log io.Writer
}

const (
	serverPort = 7000
	// probePort carries the striping control experiment: with the default
	// 16 handshake stripes, 7000 hashes to stripe 3 and 7001 to stripe 13,
	// so flood pressure on the workload port and probe dials never share a
	// handshake-table lock.
	probePort = 7001
	opTimeout = 2 * time.Second // bound on any single blocking Read/Write/Dial
	maxWait   = 30 * time.Second
)

// Run validates and executes a scenario against a live fabric, driving
// the timeline deterministically from spec.Seed, and returns the run
// report. A non-nil error means the run could not be set up (bad spec,
// service construction); assertion failures are reported via
// Report.Pass, not an error.
func Run(spec *Spec, opt RunOptions) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r, err := newRun(spec, opt)
	if err != nil {
		return nil, err
	}
	defer r.teardown()
	return r.execute(), nil
}

// workerSlot tracks one workload worker's current app context so fault
// events can kill/stall the live context.
type workerSlot struct {
	mu  sync.Mutex
	ctx *tas.Context
}

// run is the live state of one executing scenario.
type run struct {
	spec *Spec
	opt  RunOptions

	fab      *tas.Fabric
	srv      *tas.Service
	clients  []*tas.Service
	slots    [][]*workerSlot // [client][worker]
	attacker *tas.Attacker   // raw spoofed-segment source (attack specs)

	injectors map[*tas.Service]*faultinject.Injector // per service, on first fault

	linkMu  sync.Mutex
	linkCfg *tas.LinkConfig // current link model (nil = flat latency)

	stop chan struct{}

	mu          sync.Mutex
	ops         []OpRecord
	retries     int
	appRestarts int
	bytesMoved  int64
	timeline    []EventRecord
	synsSent    int64
	probeLat    []time.Duration // successful probe dials during attack windows
	probeFails  int
	stallUsed   bool // the one StallFirstConnOnly slot has been claimed

	start        time.Time
	lastEventEnd time.Duration // scheduled end (At+For) of the last timeline entry
}

func (r *run) logf(format string, args ...any) {
	if r.opt.Log != nil {
		fmt.Fprintf(r.opt.Log, format+"\n", args...)
	}
}

// chaosDefaults are the scenario engine's service defaults, applied
// under every knob a spec leaves zero: fast handshake retries, a 10ms
// control interval (20ms base RTO), and failure-domain timers that
// converge in hundreds of milliseconds while staying above heartbeat
// periods even under the race detector (CoreTimeout 400ms > 4x the 100ms
// blocked-core beat). The server records telemetry for the report.
var chaosDefaults = tas.Config{
	HandshakeRTO:     25 * time.Millisecond,
	HandshakeRetries: 7,
	MaxRetransmits:   12,
	AppTimeout:       300 * time.Millisecond,
	SlowPathTimeout:  150 * time.Millisecond,
	CoreTimeout:      400 * time.Millisecond,
	ControlInterval:  10 * time.Millisecond,
	Telemetry:        tas.TelemetryConfig{Enabled: true},
}

// serverConfig is the spec's service configuration with chaosDefaults
// under its zero knobs.
func serverConfig(t Topology) tas.Config {
	cfg := t.Config
	v, def := reflect.ValueOf(&cfg).Elem(), reflect.ValueOf(chaosDefaults)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			v.Field(i).Set(def.Field(i))
		}
	}
	cfg.MaxCores = t.ServerCores
	return cfg
}

// clientConfig is the server's configuration minus what only a server
// exercises: listener admission and SYN defenses, payload buffer sizes,
// the governor's caps and reclaim, and telemetry. Every timer — the
// peer-liveness ones included, so both ends of a blackholed link can give
// the silent peer up — applies to both sides.
func clientConfig(t Topology) tas.Config {
	cfg := serverConfig(t)
	cfg.MaxCores = t.ClientCores
	cfg.ListenBacklog, cfg.HandshakeStripes, cfg.ChallengeAckPerSec = 0, 0, 0
	cfg.SynCookies, cfg.SynRateThreshold = "", 0
	cfg.RxBufSize, cfg.TxBufSize = 0, 0
	cfg.Limits, cfg.IdleReclaimAge, cfg.ReclaimBatch = tas.Limits{}, 0, 0
	cfg.Telemetry = tas.TelemetryConfig{}
	return cfg
}

func clientAddr(k int) string { return fmt.Sprintf("10.0.1.%d", k+1) }

// hostAddr resolves a spec host name to its fabric address.
func hostAddr(name string) string {
	if name == "server" {
		return "10.0.0.1"
	}
	var k int
	fmt.Sscanf(name, "client%d", &k)
	return clientAddr(k)
}

func newRun(spec *Spec, opt RunOptions) (*run, error) {
	r := &run{
		spec: spec,
		opt:  opt,
		fab:  tas.NewFabric(),
		stop: make(chan struct{}),
	}
	// Determinism: the fabric's loss process draws from the scenario
	// seed, not the construction-time default.
	r.fab.Reseed(spec.Seed)
	// The link model goes in first: services calibrate congestion control
	// to its rate.
	if l := spec.Link; l != nil {
		cfg := tas.LinkConfig{
			RateBps:      l.RateMbps * 1e6,
			QueueCap:     l.QueuePkts,
			PropDelay:    l.Delay.D(),
			ECNThreshold: l.ECNPkts,
		}
		r.linkCfg = &cfg
		r.fab.SetLink(cfg)
	}
	srv, err := r.fab.NewService("10.0.0.1", serverConfig(spec.Topology))
	if err != nil {
		return nil, fmt.Errorf("scenario: server: %w", err)
	}
	r.srv = srv
	for k := 0; k < spec.Topology.Clients; k++ {
		cli, err := r.fab.NewService(clientAddr(k), clientConfig(spec.Topology))
		if err != nil {
			r.teardown()
			return nil, fmt.Errorf("scenario: client %d: %w", k, err)
		}
		r.clients = append(r.clients, cli)
		slots := make([]*workerSlot, spec.Workload.Conns)
		for j := range slots {
			slots[j] = &workerSlot{}
		}
		r.slots = append(r.slots, slots)
	}
	if len(spec.Attacks) > 0 {
		atk, err := r.fab.NewAttacker("10.99.0.1")
		if err != nil {
			r.teardown()
			return nil, fmt.Errorf("scenario: attacker: %w", err)
		}
		r.attacker = atk
	}
	return r, nil
}

func (r *run) teardown() {
	if r.attacker != nil {
		r.attacker.Close()
		r.attacker = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = nil
}

func (r *run) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// service resolves a fault target name.
func (r *run) service(target string) *tas.Service {
	if target == "" || target == "server" {
		return r.srv
	}
	var k int
	fmt.Sscanf(target, "client%d", &k)
	return r.clients[k]
}

// --- payloads ---------------------------------------------------------

// payloadSeed mixes the scenario seed with an op's identity; every
// random byte in the run is derived from it, so payload digests are
// part of the reproducible report.
func payloadSeed(seed int64, client, worker, op int) int64 {
	return seed + int64(client)*1_000_003 + int64(worker)*10_007 + int64(op)*101 + 1
}

func (r *run) payload(client, worker, op int) ([]byte, [32]byte) {
	b := make([]byte, r.spec.Workload.TransferBytes)
	rand.New(rand.NewSource(payloadSeed(r.spec.Seed, client, worker, op))).Read(b)
	return b, sha256.Sum256(b)
}

// --- execution --------------------------------------------------------

func (r *run) execute() *Report {
	spec := r.spec
	rep := &Report{
		Scenario:    spec.Name,
		Description: spec.Description,
		Seed:        spec.Seed,
		StartedAt:   time.Now(),
	}
	r.start = time.Now()
	r.logf("scenario %s: seed=%d clients=%d workers=%d duration<=%v",
		spec.Name, spec.Seed, spec.Topology.Clients, spec.Workload.Conns, spec.Duration.D())

	acceptDone := r.startServer()

	probeDone := make(chan struct{})
	if spec.Assert.ProbeP99 > 0 {
		go func() { defer close(probeDone); r.probeLoop() }()
	} else {
		close(probeDone)
	}

	var wg sync.WaitGroup
	for k := range r.clients {
		for j := 0; j < spec.Workload.Conns; j++ {
			wg.Add(1)
			go func(k, j int) {
				defer wg.Done()
				if spec.Workload.Kind == WorkStream {
					r.streamWorker(k, j)
				} else {
					r.rpcWorker(k, j)
				}
			}(k, j)
		}
	}
	workDone := make(chan struct{})
	go func() { wg.Wait(); close(workDone) }()

	evs := r.normalize()
	for _, ev := range evs {
		if ev.end > r.lastEventEnd {
			r.lastEventEnd = ev.end
		}
	}
	timelineDone := make(chan struct{})
	go func() { defer close(timelineDone); r.playTimeline(evs) }()

	// Attack windows hold the run open even if the workload finishes
	// early: the flood and the cross-stripe prober must run their full
	// course before the stop channel closes.
	var attackHold <-chan time.Time
	if len(spec.Attacks) > 0 {
		attackHold = time.After(time.Until(r.start.Add(r.lastEventEnd)))
	}

	capped := false
	deadline := time.After(spec.Duration.D())
	var doneAt time.Time
waitLoop:
	for workDone != nil || timelineDone != nil || attackHold != nil {
		select {
		case <-workDone:
			doneAt = time.Now()
			workDone = nil
		case <-timelineDone:
			timelineDone = nil
		case <-attackHold:
			attackHold = nil
		case <-deadline:
			capped = true
			r.logf("duration cap %v hit; stopping", spec.Duration.D())
			break waitLoop
		}
	}
	close(r.stop)
	if doneAt.IsZero() {
		// Cap hit before the workload finished: wait (bounded) for the
		// workers to observe the stop and bail out.
		waitWithTimeout(&wg, maxWait)
		doneAt = time.Now()
	}
	<-probeDone
	<-acceptDone

	rep.WallMS = float64(time.Since(r.start).Microseconds()) / 1000

	// Recovery: from the scheduled end of the last timeline entry to
	// workload completion.
	recovery := doneAt.Sub(r.start.Add(r.lastEventEnd))
	if recovery < 0 || len(r.timeline) == 0 {
		recovery = 0
	}
	rep.RecoveryMS = float64(recovery.Microseconds()) / 1000

	r.mu.Lock()
	rep.Timeline = append([]EventRecord(nil), r.timeline...)
	completed, failed, mismatches := 0, 0, 0
	for _, op := range r.ops {
		if op.Done {
			completed++
			if !op.Intact {
				mismatches++
			}
		} else {
			failed++
		}
	}
	rep.Workload = WorkloadResult{
		Kind:        spec.Workload.Kind,
		Expected:    spec.ExpectedOps(),
		Completed:   completed,
		Failed:      failed,
		Mismatches:  mismatches,
		BytesMoved:  r.bytesMoved,
		Retries:     r.retries,
		AppRestarts: r.appRestarts,
		Ops:         append([]OpRecord(nil), r.ops...),
	}
	rep.SynsSent = r.synsSent
	if r.spec.Assert.ProbeP99 > 0 {
		rep.Probe = probeSummary(r.probeLat, r.probeFails)
	}
	r.mu.Unlock()

	// Snapshots (before teardown detaches the services).
	rep.Server = ServiceSnapshot{Name: "server", ServiceStats: r.srv.Stats(), Restarts: r.srv.Restarts()}
	for k, c := range r.clients {
		rep.Clients = append(rep.Clients, ServiceSnapshot{
			Name: fmt.Sprintf("client%d", k), ServiceStats: c.Stats(), Restarts: c.Restarts(),
		})
	}
	rep.Fabric = r.fab.Stats()
	if t := r.srv.Telemetry(); t != nil {
		rep.FlightFlows = len(t.Recorder.LiveKeys()) + len(t.Recorder.RetiredKeys())
		if r.opt.Metrics {
			rep.Metrics = t.Registry.Samples()
		}
		if t.Series != nil {
			// A final forced snapshot guarantees at least one point even
			// for runs shorter than the recorder interval.
			t.Series.Snap()
			rep.TimeSeries = t.Series.Dump()
		}
	}

	rep.Assertions = r.evaluate(rep, capped, recovery)
	rep.Pass = true
	for _, a := range rep.Assertions {
		if !a.Pass {
			rep.Pass = false
		}
	}
	r.logf("%s", rep.Summary())
	return rep
}

// waitWithTimeout waits for wg, giving up after d.
func waitWithTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// --- server side ------------------------------------------------------

func (r *run) startServer() <-chan struct{} {
	done := make(chan struct{})
	sctx := r.srv.NewContext()
	ln, err := sctx.Listen(serverPort)
	if err != nil {
		// Validated spec; a listen failure is a harness bug surfaced as
		// zero completed ops.
		r.logf("listen: %v", err)
		close(done)
		return done
	}
	probeDone := make(chan struct{})
	if r.spec.Assert.ProbeP99 > 0 {
		pln, err := sctx.Listen(probePort)
		if err != nil {
			r.logf("probe listen: %v", err)
			close(probeDone)
		} else {
			go func() {
				defer close(probeDone)
				defer pln.Close()
				for {
					c, err := pln.Accept(250 * time.Millisecond)
					if err != nil {
						if r.stopped() {
							return
						}
						continue
					}
					c.Close() // the probe only measures the handshake
				}
			}()
		}
	} else {
		close(probeDone)
	}
	go func() {
		defer close(done)
		defer ln.Close()
		defer func() { <-probeDone }()
		for {
			c, err := ln.Accept(250 * time.Millisecond)
			if err != nil {
				if r.stopped() {
					return
				}
				continue
			}
			hctx := r.srv.NewContext()
			c.Rebind(hctx)
			if r.spec.Workload.Kind == WorkStream {
				go r.serveStream(c)
			} else {
				go func() {
					defer c.Close()
					echo.Serve(timeoutRW{c: c, stop: r.stop}, r.spec.Workload.MsgBytes)
				}()
			}
		}
	}()
	return done
}

// takeStallSlot claims the single stall slot when the workload
// restricts the server-side stall to the first accepted connection.
func (r *run) takeStallSlot() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stallUsed {
		return false
	}
	r.stallUsed = true
	return true
}

// sleepStall sleeps d, waking early when the run stops.
func (r *run) sleepStall(d time.Duration) {
	select {
	case <-r.stop:
	case <-time.After(d):
	}
}

// serveStream answers length-prefixed transfers with their SHA-256.
// With Workload.ServerStall set, it wedges — stops reading — for that
// long right after consuming the connection's first length header, so
// the sender piles the body up against a zero window.
func (r *run) serveStream(c *tas.Conn) {
	defer c.Close()
	stall := r.spec.Workload.ServerStall.D()
	if stall > 0 && r.spec.Workload.StallFirstConnOnly && !r.takeStallSlot() {
		stall = 0
	}
	hdr := make([]byte, 8)
	buf := make([]byte, 32<<10)
	for {
		if err := r.readFull(c, hdr); err != nil {
			return
		}
		n := binary.BigEndian.Uint64(hdr)
		if n == 0 || n > 1<<30 {
			return
		}
		if stall > 0 {
			r.sleepStall(stall)
			stall = 0 // only the first transfer wedges
		}
		h := sha256.New()
		left := int(n)
		for left > 0 {
			chunk := buf
			if left < len(chunk) {
				chunk = chunk[:left]
			}
			if err := r.readFull(c, chunk); err != nil {
				return
			}
			h.Write(chunk)
			left -= len(chunk)
		}
		sum := h.Sum(nil)
		if _, err := c.WriteTimeout(sum, opTimeout); err != nil {
			return
		}
	}
}

// readFull fills buf, retrying bounded-read timeouts until the run
// stops; any other error (EOF, reset, app dead) is returned.
func (r *run) readFull(c *tas.Conn, buf []byte) error {
	got := 0
	for got < len(buf) {
		// Check stop per iteration: against a slow link, reads make
		// continuous partial progress and would otherwise never observe
		// the duration cap.
		if got > 0 && r.stopped() {
			return errStopped
		}
		n, err := c.ReadTimeout(buf[got:], opTimeout)
		got += n
		if err != nil {
			if tas.ErrTimeout(err) && !r.stopped() {
				continue
			}
			return err
		}
	}
	return nil
}

// --- client workers ---------------------------------------------------

var errStopped = errors.New("scenario: run stopped")

// freshCtx replaces (or lazily creates) a worker's app context.
func (r *run) freshCtx(client, worker int, rebuild bool) *tas.Context {
	s := r.slots[client][worker]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil || rebuild {
		if s.ctx != nil {
			r.mu.Lock()
			r.appRestarts++
			r.mu.Unlock()
		}
		s.ctx = r.clients[client].NewContext()
	}
	return s.ctx
}

// dial connects a worker to the server, handling dead-context rebuilds.
// Returns errStopped when the run is over.
func (r *run) dial(client, worker int) (*tas.Conn, error) {
	ctx := r.freshCtx(client, worker, false)
	c, err := ctx.DialTimeout("10.0.0.1", serverPort, opTimeout)
	if err == nil {
		return c, nil
	}
	if tas.ErrAppDead(err) {
		r.freshCtx(client, worker, true)
	}
	return nil, err
}

// backoff sleeps a deterministic retry interval, aborting on stop.
func (r *run) backoff() error {
	select {
	case <-r.stop:
		return errStopped
	case <-time.After(25 * time.Millisecond):
		return nil
	}
}

func (r *run) recordOp(op OpRecord) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	if op.Done {
		r.bytesMoved += int64(op.Bytes)
	}
	r.mu.Unlock()
}

func (r *run) countRetry() {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
}

func (r *run) streamWorker(client, worker int) {
	w := r.spec.Workload
	var conn *tas.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for op := 0; op < w.Transfers; op++ {
		payload, sum := r.payload(client, worker, op)
		rec := OpRecord{
			Client: client, Worker: worker, Op: op,
			SHA: hex.EncodeToString(sum[:]), Bytes: len(payload),
		}
		if w.Reconnect && conn != nil {
			conn.Close()
			conn = nil
		}
		for !r.stopped() {
			rec.Attempts++
			if conn == nil {
				c, err := r.dial(client, worker)
				if err != nil {
					r.countRetry()
					if r.backoff() != nil {
						break
					}
					continue
				}
				conn = c
			}
			ok, err := r.doTransfer(conn, payload, sum)
			if err == nil {
				rec.Done, rec.Intact = true, ok
				break
			}
			conn.Close()
			conn = nil
			if tas.ErrAppDead(err) {
				r.freshCtx(client, worker, true)
			}
			r.countRetry()
			if r.backoff() != nil {
				break
			}
		}
		r.recordOp(rec)
		if !rec.Done {
			return // run stopped; remaining ops are unrecorded = failed
		}
	}
}

// doTransfer sends one length-prefixed payload and checks the server's
// digest. Returns (intact, nil) on completion, or an error that forces
// a reconnect.
func (r *run) doTransfer(c *tas.Conn, payload []byte, want [32]byte) (bool, error) {
	hdr := make([]byte, 8)
	binary.BigEndian.PutUint64(hdr, uint64(len(payload)))
	if err := r.writeFull(c, hdr); err != nil {
		return false, err
	}
	chunk := r.spec.Workload.ChunkBytes
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		if err := r.writeFull(c, payload[off:end]); err != nil {
			return false, err
		}
	}
	var got [32]byte
	if err := r.readFull(c, got[:]); err != nil {
		return false, err
	}
	return got == want, nil
}

// writeFull writes all of buf, retrying bounded-write timeouts until
// the run stops.
func (r *run) writeFull(c *tas.Conn, buf []byte) error {
	sent := 0
	for sent < len(buf) {
		// Same per-iteration stop check as readFull: partial progress
		// into a slow link must not outlive the duration cap.
		if sent > 0 && r.stopped() {
			return errStopped
		}
		n, err := c.WriteTimeout(buf[sent:], opTimeout)
		sent += n
		if err != nil {
			if tas.ErrTimeout(err) && !r.stopped() {
				continue
			}
			return err
		}
	}
	return nil
}

// timeoutRW adapts a connection to io.ReadWriter with bounded ops for
// the echo application.
type timeoutRW struct {
	c    *tas.Conn
	stop chan struct{}
}

func (t timeoutRW) Read(p []byte) (int, error)  { return t.c.ReadTimeout(p, opTimeout) }
func (t timeoutRW) Write(p []byte) (int, error) { return t.c.WriteTimeout(p, opTimeout) }

func (r *run) rpcWorker(client, worker int) {
	w := r.spec.Workload
	var conn *tas.Conn
	var ec *echo.Client
	onConn := 0
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for op := 0; op < w.Calls; op++ {
		rec := OpRecord{Client: client, Worker: worker, Op: op, Bytes: w.MsgBytes}
		if conn != nil && onConn >= w.CallsPerConn {
			conn.Close()
			conn, ec = nil, nil
			onConn = 0
		}
		for !r.stopped() {
			rec.Attempts++
			if conn == nil {
				c, err := r.dial(client, worker)
				if err != nil {
					r.countRetry()
					if r.backoff() != nil {
						break
					}
					continue
				}
				conn = c
				ec = echo.NewClient(timeoutRW{c: conn, stop: r.stop}, w.MsgBytes)
				onConn = 0
			}
			if err := ec.Call(); err != nil {
				conn.Close()
				conn, ec = nil, nil
				if tas.ErrAppDead(err) {
					r.freshCtx(client, worker, true)
				}
				r.countRetry()
				if r.backoff() != nil {
					break
				}
				continue
			}
			onConn++
			rec.Done, rec.Intact = true, true // Call verifies the echo
			break
		}
		r.recordOp(rec)
		if !rec.Done {
			return
		}
	}
}

// --- timeline ---------------------------------------------------------

// schedEvent is one normalized timeline entry.
type schedEvent struct {
	at     time.Duration
	end    time.Duration // at + For (stalls occupy a window)
	kind   string
	target string
	apply  func() string // returns the resolved-detail string
}

// normalize expands flaps and merges impairments and faults into one
// deterministic schedule, ordered by (at, original position).
func (r *run) normalize() []schedEvent {
	var evs []schedEvent
	for i, imp := range r.spec.Impairments {
		imp := imp
		if imp.Kind == ImpFlap {
			t := imp.At.D()
			for c := 0; c < imp.Count; c++ {
				down, up := t, t+imp.Down.D()
				host := imp.Host
				evs = append(evs, schedEvent{
					at: down, end: down, kind: ImpLinkDown, target: host,
					apply: func() string { r.fab.SetLinkDown(hostAddr(host), true); return "flap down" },
				})
				evs = append(evs, schedEvent{
					at: up, end: up, kind: ImpLinkUp, target: host,
					apply: func() string { r.fab.SetLinkDown(hostAddr(host), false); return "flap up" },
				})
				t = up + imp.Up.D()
			}
			continue
		}
		evs = append(evs, r.impairmentEvent(i, imp))
	}
	for _, f := range r.spec.Faults {
		evs = append(evs, r.faultEvent(f))
	}
	for i, a := range r.spec.Attacks {
		evs = append(evs, r.attackEvent(i, a))
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// attackEvent schedules one adversarial-traffic window. The flood runs
// on its own goroutine so the timeline player is free to fire later
// events while the attack is still in progress.
func (r *run) attackEvent(idx int, a Attack) schedEvent {
	port := a.Port
	if port == 0 {
		port = serverPort
	}
	ev := schedEvent{
		at: a.At.D(), end: a.At.D() + a.For.D(),
		kind: a.Kind, target: fmt.Sprintf("server:%d", port),
	}
	ev.apply = func() string {
		rng := rand.New(rand.NewSource(r.spec.Seed + int64(idx)*104729 + 13))
		end := r.start.Add(ev.end)
		go func() {
			// Burst every 2ms: at 50K pps that is 100 spoofed SYNs per
			// tick, comfortably inside one fabric-delivery quantum.
			const tick = 2 * time.Millisecond
			per := int(int64(a.Rate) * int64(tick) / int64(time.Second))
			if per < 1 {
				per = 1
			}
			tk := time.NewTicker(tick)
			defer tk.Stop()
			for time.Now().Before(end) && !r.stopped() {
				n, _ := r.attacker.SynBurst("10.0.0.1", port, per, rng)
				r.mu.Lock()
				r.synsSent += int64(n)
				r.mu.Unlock()
				select {
				case <-r.stop:
					return
				case <-tk.C:
				}
			}
		}()
		return fmt.Sprintf("spoofed SYN flood: %d pps on port %d for %v", a.Rate, port, a.For.D())
	}
	return ev
}

// attackWindow reports whether offset el falls inside any attack window,
// and whether any window is still ahead (so the prober knows when it can
// retire).
func (r *run) attackWindow(el time.Duration) (in, ahead bool) {
	for _, a := range r.spec.Attacks {
		if el < a.At.D()+a.For.D() {
			ahead = true
			if el >= a.At.D() {
				in = true
			}
		}
	}
	return in, ahead
}

// probeLoop dials the probe port — striped away from the workload port —
// while attack windows are open, recording handshake latency. It is the
// run's striping control: flood pressure on one stripe must not slow
// dials that take a different stripe's lock.
func (r *run) probeLoop() {
	ctx := r.clients[0].NewContext()
	for !r.stopped() {
		in, ahead := r.attackWindow(time.Since(r.start))
		if !in {
			if !ahead {
				return
			}
			select {
			case <-r.stop:
				return
			case <-time.After(time.Millisecond):
			}
			continue
		}
		t0 := time.Now()
		c, err := ctx.DialTimeout("10.0.0.1", probePort, opTimeout)
		lat := time.Since(t0)
		r.mu.Lock()
		if err != nil {
			r.probeFails++
		} else {
			r.probeLat = append(r.probeLat, lat)
		}
		r.mu.Unlock()
		if c != nil {
			c.Close()
		}
		select {
		case <-r.stop:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (r *run) impairmentEvent(idx int, imp Impairment) schedEvent {
	ev := schedEvent{at: imp.At.D(), end: imp.At.D(), kind: imp.Kind}
	seed := r.spec.Seed + int64(idx) + 7919 // per-event derived seed
	switch imp.Kind {
	case ImpLoss:
		ev.apply = func() string {
			r.fab.SetLoss(imp.Rate)
			return fmt.Sprintf("loss=%.3f", imp.Rate)
		}
	case ImpBurstLoss:
		ev.apply = func() string {
			r.fab.SetBurstLoss(tas.GEConfig{
				PGoodToBad: imp.GE.PGoodToBad, PBadToGood: imp.GE.PBadToGood,
				LossGood: imp.GE.LossGood, LossBad: imp.GE.LossBad,
			}, seed)
			return fmt.Sprintf("ge(pgb=%.3f pbg=%.3f lb=%.2f) seed=%d",
				imp.GE.PGoodToBad, imp.GE.PBadToGood, imp.GE.LossBad, seed)
		}
	case ImpClearLoss:
		ev.apply = func() string {
			r.fab.SetLoss(0)
			r.fab.ClearBurstLoss()
			return "loss cleared"
		}
	case ImpPartition:
		ev.target = imp.A + "<->" + imp.B
		ev.apply = func() string {
			r.fab.Partition(hostAddr(imp.A), hostAddr(imp.B))
			return "partitioned"
		}
	case ImpHeal:
		ev.target = imp.A + "<->" + imp.B
		ev.apply = func() string {
			if imp.A == "" || imp.B == "" {
				r.fab.HealAll()
				return "healed all"
			}
			r.fab.Heal(hostAddr(imp.A), hostAddr(imp.B))
			return "healed"
		}
	case ImpLinkDown:
		ev.target = imp.Host
		ev.apply = func() string { r.fab.SetLinkDown(hostAddr(imp.Host), true); return "down" }
	case ImpLinkUp:
		ev.target = imp.Host
		ev.apply = func() string { r.fab.SetLinkDown(hostAddr(imp.Host), false); return "up" }
	case ImpDelay:
		ev.apply = func() string {
			r.linkMu.Lock()
			defer r.linkMu.Unlock()
			if r.linkCfg != nil {
				r.linkCfg.PropDelay = imp.Delay.D()
				r.fab.SetLink(*r.linkCfg)
			} else {
				r.fab.SetLatency(imp.Delay.D())
			}
			return fmt.Sprintf("delay=%v", imp.Delay.D())
		}
	case ImpRate:
		ev.apply = func() string {
			r.linkMu.Lock()
			defer r.linkMu.Unlock()
			r.linkCfg.RateBps = imp.Rate * 1e6
			r.fab.SetLink(*r.linkCfg)
			return fmt.Sprintf("rate=%.1fMbps", imp.Rate)
		}
	}
	return ev
}

// victimCore returns the active core owning the most flows (ties to the
// lowest index): the deterministic resolution of Core == -1.
func victimCore(eng *fastpath.Engine) int {
	counts := make(map[int]int)
	eng.Table.ForEach(func(f *flowstate.Flow) {
		counts[eng.CoreForFlow(f)]++
	})
	victim, n := 0, -1
	for c, k := range counts {
		if k > n || (k == n && c < victim) {
			victim, n = c, k
		}
	}
	return victim
}

// injector returns svc's fault injector, attaching it to the engine's
// fault hook on first use (timeline events fire on one goroutine).
func (r *run) injector(svc *tas.Service) *faultinject.Injector {
	in := r.injectors[svc]
	if in == nil {
		in = faultinject.Attach(svc.Engine())
		if r.injectors == nil {
			r.injectors = make(map[*tas.Service]*faultinject.Injector)
		}
		r.injectors[svc] = in
	}
	return in
}

func (r *run) faultEvent(f FaultEvent) schedEvent {
	target := f.Target
	if target == "" {
		target = "server"
	}
	ev := schedEvent{at: f.At.D(), end: f.At.D() + f.For.D(), kind: f.Kind, target: target}
	// app runs fn on client target's workload context f.App, if it has one.
	app := func(fn func(ctx *tas.Context)) {
		var k int
		fmt.Sscanf(target, "client%d", &k)
		s := r.slots[k][f.App]
		s.mu.Lock()
		if s.ctx != nil {
			fn(s.ctx)
		}
		s.mu.Unlock()
	}
	switch f.Kind {
	case FaultAppKill:
		ev.apply = func() string {
			app(func(ctx *tas.Context) { ctx.Kill() })
			return fmt.Sprintf("app %d killed", f.App)
		}
	case FaultAppStall:
		ev.apply = func() string {
			in := r.injector(r.service(target))
			app(func(ctx *tas.Context) { in.StallApp(ctx.LowLevel().ID, f.For.D()) })
			return fmt.Sprintf("app %d stalled %v", f.App, f.For.D())
		}
	case FaultSlowKill:
		ev.apply = func() string { r.service(target).Slow().Kill(); return "slow path killed" }
	case FaultSlowStall:
		ev.apply = func() string {
			r.injector(r.service(target)).StallSlowPath(f.For.D())
			return fmt.Sprintf("slow path stalled %v", f.For.D())
		}
	case FaultSlowPanic:
		ev.apply = func() string { r.injector(r.service(target)).PanicSlowPath(); return "slow path panic injected" }
	case FaultSlowRestart:
		ev.apply = func() string {
			st := r.service(target).Restart()
			return fmt.Sprintf("warm restart: %d flows readopted, %d aborted", st.FlowsReconstructed, st.FlowsAborted)
		}
	case FaultCoreKill, FaultCoreStall, FaultCorePanic:
		ev.apply = func() string {
			svc := r.service(target)
			c := f.Core
			if c == -1 { // the busiest core at fire time
				c = victimCore(svc.Engine())
			}
			switch f.Kind {
			case FaultCoreKill:
				svc.Engine().KillCore(c)
				return fmt.Sprintf("core %d killed", c)
			case FaultCoreStall:
				r.injector(svc).StallCore(c, f.For.D())
				return fmt.Sprintf("core %d stalled %v", c, f.For.D())
			}
			r.injector(svc).PanicCore(c)
			return fmt.Sprintf("core %d panic injected", c)
		}
	case FaultCoreRevive:
		ev.apply = func() string {
			ok := r.service(target).ReviveCore(f.Core)
			return fmt.Sprintf("core %d revived (fresh=%v)", f.Core, ok)
		}
	}
	return ev
}

// playTimeline fires every scheduled event at its offset.
func (r *run) playTimeline(evs []schedEvent) {
	for _, ev := range evs {
		wait := time.Until(r.start.Add(ev.at))
		if wait > 0 {
			select {
			case <-r.stop:
				return
			case <-time.After(wait):
			}
		}
		if r.stopped() {
			return
		}
		detail := ev.apply()
		wall := time.Since(r.start)
		r.logf("  t=%7.1fms %-14s %-18s %s",
			float64(wall.Microseconds())/1000, ev.kind, ev.target, detail)
		r.mu.Lock()
		r.timeline = append(r.timeline, EventRecord{
			AtMS:   float64(ev.at.Microseconds()) / 1000,
			WallMS: float64(wall.Microseconds()) / 1000,
			Kind:   ev.kind,
			Target: ev.target,
			Detail: detail,
		})
		r.mu.Unlock()
	}
}

// --- assertions -------------------------------------------------------

func (r *run) evaluate(rep *Report, capped bool, recovery time.Duration) []AssertionResult {
	a := r.spec.Assert
	var out []AssertionResult
	add := func(name string, pass bool, format string, args ...any) {
		out = append(out, AssertionResult{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
	}

	// total sums one counter over the server and every client; atLeast is
	// the assertion that a counter reached an asked-for minimum.
	total := func(read func(*ServiceSnapshot) uint64) uint64 {
		n := read(&rep.Server)
		for i := range rep.Clients {
			n += read(&rep.Clients[i])
		}
		return n
	}
	atLeast := func(name string, got uint64, want int, what string) {
		if want > 0 {
			add(name, got >= uint64(want), "%d %s (want >= %d)", got, what, want)
		}
	}

	if capped {
		add("within-duration", false, "run hit the %v duration cap", r.spec.Duration.D())
	} else {
		add("within-duration", true, "finished in %.0fms", rep.WallMS)
	}
	// Always on: whatever the timeline did to cores, slow paths and apps,
	// no service may end with a flow stranded off the control tick or a
	// close off its timer.
	var ctlErr error
	for _, svc := range append([]*tas.Service{r.srv}, r.clients...) {
		if ctlErr = svc.Slow().CheckControlInvariant(); ctlErr != nil {
			break
		}
	}
	if ctlErr != nil {
		add("control-set", false, "%v", ctlErr)
	} else {
		add("control-set", true, "every flow active, parked or queued for activation; no parked flow holds work; every close on its timer, the timer pool exact")
	}
	if a.AllComplete {
		w := rep.Workload
		add("all-complete", w.Completed == w.Expected && w.Failed == 0,
			"%d/%d ops completed (%d failed)", w.Completed, w.Expected, w.Failed)
	}
	if a.Intact {
		m := rep.Workload.Mismatches
		add("intact", m == 0, "%d content mismatches over %d completed ops (SHA-256 verified)",
			m, rep.Workload.Completed)
	}
	if a.MaxRecovery > 0 {
		add("recovery", recovery <= a.MaxRecovery.D(),
			"recovered in %v (bound %v)", recovery.Round(time.Millisecond), a.MaxRecovery.D())
	}
	atLeast("flows-migrated", rep.Server.FlowsMigrated, a.MinFlowsMigrated, "flows migrated")
	atLeast("core-failures", rep.Server.CoreFailures, a.MinCoreFailures, "core failures declared")
	atLeast("apps-reaped", total(func(s *ServiceSnapshot) uint64 { return s.AppsReaped }),
		a.MinAppsReaped, "app contexts reaped")
	if a.RequireDegraded {
		outages := total(func(s *ServiceSnapshot) uint64 { return s.SlowPathOutages })
		add("degraded-observed", outages > 0, "%d slow-path outages observed", outages)
	}
	if a.BoundServerAborts {
		add("server-aborts", rep.Server.Aborts <= uint64(a.MaxServerAborts),
			"%d server aborts (bound %d)", rep.Server.Aborts, a.MaxServerAborts)
	}
	zw := total(func(s *ServiceSnapshot) uint64 { return s.PeerDeadZeroWindow })
	ka := total(func(s *ServiceSnapshot) uint64 { return s.PeerDeadKeepalive })
	atLeast("persist-probes", total(func(s *ServiceSnapshot) uint64 { return s.PersistProbes }),
		a.MinPersistProbes, "zero-window probes sent across services")
	if a.MinPeerDead > 0 {
		add("peer-dead", zw+ka >= uint64(a.MinPeerDead),
			"%d peer-dead verdicts (%d zero-window, %d keepalive; want >= %d)",
			zw+ka, zw, ka, a.MinPeerDead)
	}
	if a.BoundPeerDead {
		add("peer-dead-bound", zw+ka <= uint64(a.MaxPeerDead),
			"%d peer-dead verdicts (%d zero-window, %d keepalive; bound %d)",
			zw+ka, zw, ka, a.MaxPeerDead)
	}
	if a.NoReaperFired {
		reaped := total(func(s *ServiceSnapshot) uint64 { return s.AppsReaped })
		idle := total(func(s *ServiceSnapshot) uint64 { return s.GovIdleReclaimed })
		add("liveness-not-reaper", reaped == 0 && idle == 0,
			"%d app contexts reaped, %d flows idle-reclaimed (dead peers must fall to liveness probes alone)",
			reaped, idle)
	}
	if a.MinCookiesValidated > 0 {
		got := rep.Server.SynCookiesValidated
		add("cookies-validated", got >= uint64(a.MinCookiesValidated),
			"%d connections reconstructed from SYN cookies (want >= %d; %d cookies sent, %d rejected)",
			got, a.MinCookiesValidated, rep.Server.SynCookiesSent, rep.Server.SynCookiesRejected)
	}
	if a.ProbeP99 > 0 {
		p := rep.Probe
		if p == nil || p.Dials == 0 {
			add("probe-p99", false, "prober made no successful dials during attack windows (%d failed)",
				r.probeFails)
		} else {
			bound := float64(a.ProbeP99.D().Microseconds()) / 1000
			add("probe-p99", p.P99MS <= bound && p.Fails == 0,
				"cross-stripe dial p99 %.2fms over %d dials, %d failed (bound %.2fms)",
				p.P99MS, p.Dials, p.Fails, bound)
		}
	}
	if a.RttP99Under > 0 {
		boundUS := float64(a.RttP99Under.D().Microseconds())
		if rep.TimeSeries == nil {
			add("rtt-p99", false, "no embedded time series (telemetry recorder disabled)")
		} else if n, ok := rep.TimeSeries.Max("tas_rtt_us_count", nil); !ok || n == 0 {
			// An empty histogram would satisfy any bound vacuously; a
			// scenario asserting on RTT must actually generate server-side
			// ACK traffic (the server has to transmit data).
			add("rtt-p99", false, "RTT histogram saw no samples (server transmitted too little data)")
		} else if maxUS, ok := rep.TimeSeries.Max("tas_rtt_us", map[string]string{"quantile": "0.99"}); !ok {
			add("rtt-p99", false, "time series has no tas_rtt_us{quantile=\"0.99\"} points")
		} else {
			add("rtt-p99", maxUS <= boundUS,
				"worst sampled p99 RTT %.0fµs over %d snapshots, %.0f RTT samples (bound %.0fµs)",
				maxUS, len(rep.TimeSeries.AtMS), n, boundUS)
		}
	}
	for _, c := range sortedKeys(a.DropCauses) {
		got, _ := rep.Server.Drop(c)
		add("drops:"+c, got <= a.DropCauses[c], "%d drops (bound %d)", got, a.DropCauses[c])
	}
	if a.MinPressureLevel > 0 {
		got := rep.Server.PeakPressureLevel
		add("pressure-level", got >= a.MinPressureLevel,
			"degradation ladder peaked at rung %d (want >= %d; %d flow denials, %d idle reclaimed)",
			got, a.MinPressureLevel, rep.Server.GovFlowDenied, rep.Server.GovIdleReclaimed)
	}
	if len(a.MaxPoolUsed) > 0 {
		// Pool drains are asynchronous — FIN sweeps, reaper passes, and
		// governor releases all run on control ticks — so give the stack
		// a settle window before calling an occupancy a leak. The
		// services are still live here (teardown happens after
		// evaluation), so polling observes the drain.
		pools := sortedKeys(a.MaxPoolUsed)
		used := rep.Server.PoolUsed
		deadline := time.Now().Add(poolSettleWait)
		for {
			ok := true
			for _, p := range pools {
				if used[p] > a.MaxPoolUsed[p] {
					ok = false
				}
			}
			if ok || time.Now().After(deadline) {
				break
			}
			time.Sleep(25 * time.Millisecond)
			used = r.srv.Stats().PoolUsed
		}
		for _, p := range pools {
			add("pool:"+p, used[p] <= a.MaxPoolUsed[p],
				"%d in use after settle (bound %d)", used[p], a.MaxPoolUsed[p])
		}
	}
	return out
}

// poolSettleWait bounds how long evaluate waits for governed pools to
// drain back under their asserted bounds after the workload completes.
const poolSettleWait = 5 * time.Second

// probeSummary reduces the prober's latency samples.
func probeSummary(lat []time.Duration, fails int) *ProbeResult {
	p := &ProbeResult{Dials: len(lat), Fails: fails}
	if len(lat) == 0 {
		return p
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	pct := func(q float64) time.Duration {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	p.P50MS = ms(pct(0.50))
	p.P99MS = ms(pct(0.99))
	p.MaxMS = ms(sorted[len(sorted)-1])
	return p
}
