package scenario

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	tas "repro"
	"repro/internal/faultinject"
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
	// probePort carries the control experiment: dials to a second port
	// while a flood hammers the workload port.
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

// run is the live state of one executing scenario.
type run struct {
	spec *Spec
	opt  RunOptions

	fab      *tas.Fabric
	srv      *tas.Service
	clients  []*tas.Service
	slots    [][]atomic.Pointer[tas.Context] // [client][worker]: the live app context, for app faults
	attacker *tas.Attacker                   // raw spoofed-segment source (attack specs)

	// Timeline state: events fire on one goroutine, so these need no lock.
	injectors map[*tas.Service]*faultinject.Injector // per service, on first fault
	linkCfg   *tas.LinkConfig                        // current link model (nil = direct delivery)

	stop     chan struct{}
	synsSent atomic.Int64   // spoofed segments the attack windows sent
	bg       sync.WaitGroup // the timeline, accept loops and probers: they end with the run

	mu          sync.Mutex
	ops         []OpRecord
	retries     int
	appRestarts int
	timeline    []EventRecord
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
	cfg.ListenBacklog, cfg.ChallengeAckPerSec = 0, 0
	cfg.SynCookies, cfg.SynRateThreshold = "", 0
	cfg.RxBufSize, cfg.TxBufSize = 0, 0
	cfg.Limits, cfg.IdleReclaimAge, cfg.ReclaimBatch = tas.Limits{}, 0, 0
	cfg.Telemetry = tas.TelemetryConfig{}
	return cfg
}

func clientAddr(k int) string { return fmt.Sprintf("10.0.1.%d", k+1) }

// hostAddr resolves a spec host name to its fabric address.
func hostAddr(name string) string {
	if k, ok := clientIndex(name); ok {
		return clientAddr(k)
	}
	return "10.0.0.1"
}

// service resolves a fault target name.
func (r *run) service(target string) *tas.Service {
	if k, ok := clientIndex(target); ok {
		return r.clients[k]
	}
	return r.srv
}

func newRun(spec *Spec, opt RunOptions) (*run, error) {
	r := &run{
		spec:      spec,
		opt:       opt,
		fab:       tas.NewFabric(),
		stop:      make(chan struct{}),
		injectors: make(map[*tas.Service]*faultinject.Injector),
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
		r.slots = append(r.slots, make([]atomic.Pointer[tas.Context], spec.Workload.Conns))
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
	}
	r.srv.Close()
	for _, c := range r.clients {
		c.Close()
	}
}

func (r *run) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// sleep waits d, or less if the run stops first; it reports whether the
// run is still going.
func (r *run) sleep(d time.Duration) bool {
	select {
	case <-r.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// --- execution --------------------------------------------------------

func (r *run) execute() *Report {
	spec := r.spec
	r.start = time.Now()
	rep := &Report{Scenario: spec.Name, Description: spec.Description, Seed: spec.Seed, StartedAt: r.start}
	r.logf("scenario %s: seed=%d clients=%d workers=%d duration<=%v",
		spec.Name, spec.Seed, spec.Topology.Clients, spec.Workload.Conns, spec.Duration.D())

	r.serve()

	var wg sync.WaitGroup
	for k := range r.clients {
		for j := 0; j < spec.Workload.Conns; j++ {
			wg.Add(1)
			go func(k, j int) { defer wg.Done(); r.worker(k, j) }(k, j)
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
	// The timeline counts in bg: an attack window it opens adds its prober.
	timelineDone := make(chan struct{})
	r.bg.Add(1)
	go func() { defer r.bg.Done(); defer close(timelineDone); r.playTimeline(evs) }()

	capped := false
	deadline := time.After(spec.Duration.D())
	var doneAt time.Time
waitLoop:
	for workDone != nil || timelineDone != nil {
		select {
		case <-workDone:
			doneAt = time.Now()
			workDone = nil
		case <-timelineDone:
			timelineDone = nil
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
		select {
		case <-workDone:
		case <-time.After(maxWait):
		}
		doneAt = time.Now()
	}
	r.bg.Wait()

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
	completed, failed, mismatches, moved := 0, 0, 0, int64(0)
	for _, op := range r.ops {
		if !op.Done {
			failed++
			continue
		}
		completed++
		moved += int64(op.Bytes)
		if !op.Intact {
			mismatches++
		}
	}
	rep.Workload = WorkloadResult{
		Kind:        spec.Workload.Kind,
		Expected:    spec.ExpectedOps(),
		Completed:   completed,
		Failed:      failed,
		Mismatches:  mismatches,
		BytesMoved:  moved,
		Retries:     r.retries,
		AppRestarts: r.appRestarts,
		Ops:         append([]OpRecord(nil), r.ops...),
	}
	rep.SynsSent = r.synsSent.Load()
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
	rep.Pass = !slices.ContainsFunc(rep.Assertions, func(a AssertionResult) bool { return !a.Pass })
	r.logf("%s", rep.Summary())
	return rep
}

// --- server side ------------------------------------------------------

// serve listens on the workload port, handing each accepted connection,
// rebound to a fresh context, to the workload kind's server; and on the
// probe port when the run probes, where the probe only measures the
// handshake.
func (r *run) serve() {
	sctx := r.srv.NewContext()
	serve := workloadKinds[r.spec.Workload.Kind].serve
	r.accept(sctx, serverPort, func(c *tas.Conn) {
		c.Rebind(r.srv.NewContext())
		go serve(r, c)
	})
	if r.spec.Assert.ProbeP99 > 0 {
		r.accept(sctx, probePort, func(c *tas.Conn) { c.Close() })
	}
}

// accept hands every connection accepted on port to handle until the
// run stops.
func (r *run) accept(ctx *tas.Context, port uint16, handle func(*tas.Conn)) {
	ln, err := ctx.Listen(port)
	if err != nil {
		// Validated spec; a listen failure is a harness bug surfaced as
		// zero completed ops (or zero probe dials).
		r.logf("listen %d: %v", port, err)
		return
	}
	r.bg.Add(1)
	go func() {
		defer r.bg.Done()
		defer ln.Close()
		for !r.stopped() {
			if c, err := ln.Accept(250 * time.Millisecond); err == nil {
				handle(c)
			}
		}
	}()
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

// normalize merges every family's events into one deterministic
// schedule, ordered by (at, original position).
func (r *run) normalize() []schedEvent {
	var evs []schedEvent
	for i, imp := range r.spec.Impairments {
		evs = append(evs, impairKinds[imp.Kind].schedule(r, i, imp)...)
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

// playTimeline fires every scheduled event at its offset. Attack windows
// then hold it, and so the run, open even if the workload finishes
// early: the flood and its prober run their full course.
func (r *run) playTimeline(evs []schedEvent) {
	for _, ev := range evs {
		if wait := time.Until(r.start.Add(ev.at)); wait > 0 {
			r.sleep(wait)
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
	if len(r.spec.Attacks) > 0 {
		r.sleep(time.Until(r.start.Add(r.lastEventEnd)))
	}
}
