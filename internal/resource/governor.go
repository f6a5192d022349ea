// Package resource is the unified resource governor: one place that
// accounts for every finite pool in the stack (payload-buffer bytes,
// flow-table and half-open slots, context slots, timer entries, accept
// backlog), enforces per-app quotas on top of global capacities, and
// drives a hysteresis-based degradation ladder so the stack sheds load
// in a defined order instead of failing at whichever ad-hoc check trips
// first.
//
// The ladder has four rungs, engaged in order as pressure rises and
// released in reverse order as it falls (each transition crosses a
// watermark pair, so the level cannot flap on a noisy gauge):
//
//	1 cookies   — force stateless SYN cookies (no half-open state)
//	2 shed-syn  — drop new SYNs outright (established flows unharmed)
//	3 clamp-tx  — shrink per-flow TX buffer grants (slows senders)
//	4 reclaim   — reclaim idle flows LRU-first with RST (frees pools)
//
// The governor itself is passive bookkeeping plus a level machine; the
// slow path calls Evaluate on its control tick and applies the rungs,
// the fast path and libtas consult the level for shedding and grant
// clamps, and telemetry scrapes the occupancy gauges.
package resource

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool identifies one finite resource pool under governor accounting.
type Pool int

// The governed pools. PoolPayload is in bytes; all others are slots.
const (
	PoolPayload  Pool = iota // payload-buffer bytes (RX+TX rings)
	PoolFlows                // established flow-table entries
	PoolHalfOpen             // half-open handshake slots
	PoolContexts             // registered app context slots
	PoolTimers               // pending timer entries (closing/retransmit sweeps)
	PoolAccept               // accept-backlog occupancy across listeners
	PoolTimeWait             // TIME_WAIT 2MSL quarantine entries
	NumPools
)

var poolNames = [NumPools]string{
	"payload_bytes", "flows", "half_open", "contexts", "timers", "accept",
	"time_wait",
}

// String returns the pool's metric-label name.
func (p Pool) String() string {
	if p < 0 || p >= NumPools {
		return fmt.Sprintf("pool%d", int(p))
	}
	return poolNames[p]
}

// Degradation-ladder levels (rungs). Level 0 is no degradation.
const (
	LevelCookies = 1 // force SYN cookies
	LevelShedSyn = 2 // shed new SYNs
	LevelClampTx = 3 // shrink per-flow TX grants
	LevelReclaim = 4 // reclaim idle flows LRU-first
	NumLevels    = 5
	maxLevel     = LevelReclaim
)

var levelNames = [NumLevels]string{"normal", "cookies", "shed_syn", "clamp_tx", "reclaim"}

// LevelName returns the rung's human/metric name.
func LevelName(l int) string {
	if l < 0 || l >= NumLevels {
		return fmt.Sprintf("level%d", l)
	}
	return levelNames[l]
}

// ErrExhausted is the sentinel for every governor admission denial —
// global pool exhaustion or per-app quota. Callers errors.Is against it
// to map overload (as opposed to faults) onto typed backpressure.
var ErrExhausted = errors.New("resource: pool exhausted")

// quotaErr wraps ErrExhausted with the denied pool and scope.
type quotaErr struct {
	pool   Pool
	perApp bool
}

func (e *quotaErr) Error() string {
	scope := "global"
	if e.perApp {
		scope = "per-app quota"
	}
	return fmt.Sprintf("resource: %s pool exhausted (%s)", e.pool, scope)
}

func (e *quotaErr) Unwrap() error { return ErrExhausted }

// Limits configures pool capacities, per-app quotas, and the watermark
// pair. Zero capacity means the pool is accounted but uncapped (it
// contributes no pressure), as the pools with no field here always are:
// context slots, timers and the accept backlog are charged where the
// producer cannot be refused, so a cap on them could deny nothing. Validate rejects inconsistent settings.
// The JSON keys are the scenario topology's (config.Config embeds Limits).
type Limits struct {
	// Global pool capacities (0 = uncapped): payload-buffer bytes across
	// all flows, established flow-table entries, half-open handshake
	// slots, and TIME_WAIT quarantine entries (oldest evicted past cap).
	PayloadBytes int64 `json:"max_payload_bytes,omitempty"`
	Flows        int64 `json:"max_flows,omitempty"`
	HalfOpen     int64 `json:"max_half_open,omitempty"`
	TimeWait     int64 `json:"-"`

	// Per-app quotas (0 = none). A quota must not exceed the
	// corresponding global capacity when both are set.
	AppFlows        int64 `json:"app_max_flows,omitempty"`
	AppPayloadBytes int64 `json:"app_max_payload_bytes,omitempty"`

	// Watermark pair for the degradation ladder, in percent of the
	// hottest pool's capacity: rung 1 engages at EngagePct and releases
	// below ReleasePct; higher rungs spread evenly from EngagePct to
	// 100, each keeping the same hysteresis gap. ReleasePct must be
	// strictly below EngagePct. Zero means defaults (70/55).
	EngagePct  int `json:"pressure_engage_pct,omitempty"`
	ReleasePct int `json:"pressure_release_pct,omitempty"`
}

const (
	defaultEngagePct  = 70
	defaultReleasePct = 55
)

// fill applies watermark defaults in place.
func (l *Limits) fill() {
	if l.EngagePct == 0 && l.ReleasePct == 0 {
		l.EngagePct, l.ReleasePct = defaultEngagePct, defaultReleasePct
	}
}

// Validate rejects inconsistent limits: per-app quotas above the global
// pool, watermarks outside (0,100], and inverted hysteresis (release
// at or above engage). A nil return means New will not surprise.
func (l Limits) Validate() error {
	l.fill()
	if l.EngagePct <= 0 || l.EngagePct > 100 {
		return fmt.Errorf("resource: engage watermark %d%% outside (0,100]", l.EngagePct)
	}
	if l.ReleasePct <= 0 || l.ReleasePct > 100 {
		return fmt.Errorf("resource: release watermark %d%% outside (0,100]", l.ReleasePct)
	}
	if l.ReleasePct >= l.EngagePct {
		return fmt.Errorf("resource: inverted hysteresis: release watermark %d%% must be below engage %d%%",
			l.ReleasePct, l.EngagePct)
	}
	for _, c := range []struct {
		name       string
		quota, cap int64
	}{
		{"flows", l.AppFlows, l.Flows},
		{"payload bytes", l.AppPayloadBytes, l.PayloadBytes},
	} {
		if c.quota < 0 || c.cap < 0 {
			return fmt.Errorf("resource: negative %s limit", c.name)
		}
		if c.quota > 0 && c.cap > 0 && c.quota > c.cap {
			return fmt.Errorf("resource: per-app %s quota %d exceeds global pool %d", c.name, c.quota, c.cap)
		}
	}
	for p, cap := range l.caps() {
		if cap < 0 {
			return fmt.Errorf("resource: negative %s capacity", Pool(p))
		}
	}
	return nil
}

// caps returns the capacities indexed by Pool.
func (l Limits) caps() [NumPools]int64 {
	return [NumPools]int64{
		PoolPayload:  l.PayloadBytes,
		PoolFlows:    l.Flows,
		PoolHalfOpen: l.HalfOpen,
		PoolTimeWait: l.TimeWait,
	}
}

// appUsage tracks one application context's quota consumption.
type appUsage struct {
	flows   atomic.Int64
	payload atomic.Int64
}

// Governor is the unified accountant and ladder state machine. All
// methods are safe for concurrent use; the hot-path cost of an
// Acquire/Release is one atomic add (plus a bounds check when capped).
type Governor struct {
	limits Limits
	caps   [NumPools]int64

	occ  [NumPools]atomic.Int64
	peak [NumPools]atomic.Int64

	mu   sync.Mutex // guards apps map mutation
	apps map[uint32]*appUsage

	level     atomic.Int32
	peakLevel atomic.Int32

	// engaged[k] counts transitions onto rung k; shed[k] counts the
	// actions rung k took (cookies forced, SYNs shed, grants clamped,
	// flows reclaimed). Index 0 is unused.
	engaged [NumLevels]atomic.Uint64
	shed    [NumLevels]atomic.Uint64

	rejects [NumPools]atomic.Uint64 // global-pool admission denials
	quota   atomic.Uint64           // per-app quota denials
	// underflow counts un-charges that drove a pool negative and were
	// clamped: each one is an ordering or double-release bug upstream.
	underflow [NumPools]atomic.Uint64

	// txGrant is the clamped per-flow TX grant in bytes while rung 3+
	// is engaged (0 = unclamped). Read by libtas on every Send.
	txGrant atomic.Int64

	// onTransition, when set, is invoked (outside locks) for every rung
	// transition — the slow path uses it to emit flight events.
	onTransition func(from, to int)
}

// New builds a governor from validated limits; invalid limits panic
// (callers validate first — the facade surfaces the error).
func New(l Limits) *Governor {
	l.fill()
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return &Governor{limits: l, caps: l.caps(), apps: make(map[uint32]*appUsage)}
}

// OnTransition installs the rung-transition hook (call before use).
func (g *Governor) OnTransition(fn func(from, to int)) { g.onTransition = fn }

// Limits returns the configured limits.
func (g *Governor) Limits() Limits { return g.limits }

// Cap returns the pool's configured capacity (0 = uncapped).
func (g *Governor) Cap(p Pool) int64 { return g.caps[p] }

// Used returns the pool's current occupancy.
func (g *Governor) Used(p Pool) int64 { return g.occ[p].Load() }

// Peak returns the pool's high-water mark.
func (g *Governor) Peak(p Pool) int64 { return g.peak[p].Load() }

// Acquire reserves n units from pool p, failing (without reserving)
// if a capacity is configured and would be exceeded. It returns a
// *quotaErr wrapping ErrExhausted on denial.
func (g *Governor) Acquire(p Pool, n int64) error {
	if n < 0 {
		panic("resource: negative acquire")
	}
	next := g.occ[p].Add(n)
	if cap := g.caps[p]; cap > 0 && next > cap {
		g.occ[p].Add(-n)
		g.rejects[p].Add(1)
		return &quotaErr{pool: p}
	}
	g.bumpPeak(p, next)
	return nil
}

// Charge adds n units to pool p unconditionally — no cap check, no
// denial. It is the accounting hook for pools whose occupancy must be
// tracked (and contribute pressure) but whose producers cannot be
// refused at the charge point: timer entries, accept-backlog slots,
// context slots. Negative n un-charges; un-charging below zero clamps
// and counts an underflow.
func (g *Governor) Charge(p Pool, n int64) {
	next := g.occ[p].Add(n)
	if next < 0 {
		g.clampUnderflow(p)
		return
	}
	g.bumpPeak(p, next)
}

// Release returns n units to pool p. Releasing more than acquired is a
// bookkeeping bug; the occupancy is clamped at zero and the underflow
// counted, so a stray double release degrades to a visible counter (and
// test failure), not a wedge.
func (g *Governor) Release(p Pool, n int64) {
	if n < 0 {
		panic("resource: negative release")
	}
	if next := g.occ[p].Add(-n); next < 0 {
		g.clampUnderflow(p)
	}
}

// clampUnderflow resets a pool that went negative and counts the slip.
func (g *Governor) clampUnderflow(p Pool) {
	g.occ[p].Store(0)
	g.underflow[p].Add(1)
}

func (g *Governor) bumpPeak(p Pool, v int64) {
	for {
		cur := g.peak[p].Load()
		if v <= cur || g.peak[p].CompareAndSwap(cur, v) {
			return
		}
	}
}

// app returns (creating if needed) the usage record for ctxID.
func (g *Governor) app(ctxID uint32) *appUsage {
	g.mu.Lock()
	u := g.apps[ctxID]
	if u == nil {
		u = &appUsage{}
		g.apps[ctxID] = u
	}
	g.mu.Unlock()
	return u
}

// AcquireFlow reserves one flow slot plus payloadBytes of buffer space,
// charging both the global pools and ctxID's quota. On any denial
// nothing is left reserved.
func (g *Governor) AcquireFlow(ctxID uint32, payloadBytes int64) error {
	u := g.app(ctxID)
	if q := g.limits.AppFlows; q > 0 {
		if next := u.flows.Add(1); next > q {
			u.flows.Add(-1)
			g.quota.Add(1)
			return &quotaErr{pool: PoolFlows, perApp: true}
		}
	} else {
		u.flows.Add(1)
	}
	if q := g.limits.AppPayloadBytes; q > 0 {
		if next := u.payload.Add(payloadBytes); next > q {
			u.payload.Add(-payloadBytes)
			u.flows.Add(-1)
			g.quota.Add(1)
			return &quotaErr{pool: PoolPayload, perApp: true}
		}
	} else {
		u.payload.Add(payloadBytes)
	}
	if err := g.Acquire(PoolFlows, 1); err != nil {
		u.payload.Add(-payloadBytes)
		u.flows.Add(-1)
		return err
	}
	if err := g.Acquire(PoolPayload, payloadBytes); err != nil {
		g.Release(PoolFlows, 1)
		u.payload.Add(-payloadBytes)
		u.flows.Add(-1)
		return err
	}
	return nil
}

// ReleaseFlow undoes AcquireFlow.
func (g *Governor) ReleaseFlow(ctxID uint32, payloadBytes int64) {
	u := g.app(ctxID)
	if v := u.flows.Add(-1); v < 0 {
		u.flows.Store(0)
	}
	if v := u.payload.Add(-payloadBytes); v < 0 {
		u.payload.Store(0)
	}
	g.Release(PoolFlows, 1)
	g.Release(PoolPayload, payloadBytes)
}

// GrowPayload charges extra payload bytes to an existing flow (buffer
// resize). It fails against both the app quota and the global pool.
func (g *Governor) GrowPayload(ctxID uint32, delta int64) error {
	if delta <= 0 {
		return nil
	}
	u := g.app(ctxID)
	if q := g.limits.AppPayloadBytes; q > 0 {
		if next := u.payload.Add(delta); next > q {
			u.payload.Add(-delta)
			g.quota.Add(1)
			return &quotaErr{pool: PoolPayload, perApp: true}
		}
	} else {
		u.payload.Add(delta)
	}
	if err := g.Acquire(PoolPayload, delta); err != nil {
		u.payload.Add(-delta)
		return err
	}
	return nil
}

// Reset forces pool p's occupancy to v. Warm restart uses it to
// reconcile pools whose entries died with the crashed slow-path
// instance (half-open handshakes, FIN timers): the governor outlives
// the instance, so abandoned in-progress charges must be written off
// against what the recovered state actually holds.
func (g *Governor) Reset(p Pool, v int64) {
	if v < 0 {
		v = 0
	}
	g.occ[p].Store(v)
	g.bumpPeak(p, v)
}

// CheckApp is the advisory Dial-time quota probe: it reports (without
// reserving anything) whether ctxID is already at its flow quota, so an
// active open can fail fast with backpressure instead of completing a
// handshake the install-time check would tear down. Racy by design —
// the authoritative charge happens at flow installation.
func (g *Governor) CheckApp(ctxID uint32) error {
	q := g.limits.AppFlows
	if q <= 0 {
		return nil
	}
	g.mu.Lock()
	u := g.apps[ctxID]
	g.mu.Unlock()
	if u != nil && u.flows.Load() >= q {
		g.quota.Add(1)
		return &quotaErr{pool: PoolFlows, perApp: true}
	}
	return nil
}

// DropApp forgets an application context's quota record (reaped app).
// Its flow/payload charges must already have been released per-flow.
func (g *Governor) DropApp(ctxID uint32) {
	g.mu.Lock()
	delete(g.apps, ctxID)
	g.mu.Unlock()
}

// AppUsage reports ctxID's current quota consumption.
func (g *Governor) AppUsage(ctxID uint32) (flows, payloadBytes int64) {
	g.mu.Lock()
	u := g.apps[ctxID]
	g.mu.Unlock()
	if u == nil {
		return 0, 0
	}
	return u.flows.Load(), u.payload.Load()
}

// Pressure returns the hottest capped pool's occupancy fraction in
// [0,1] (uncapped pools contribute nothing).
func (g *Governor) Pressure() float64 {
	var worst float64
	for p := Pool(0); p < NumPools; p++ {
		if cap := g.caps[p]; cap > 0 {
			if f := float64(g.occ[p].Load()) / float64(cap); f > worst {
				worst = f
			}
		}
	}
	return worst
}

// thresholds returns rung k's engage/release pressure fractions. Rung
// engage points spread evenly from EngagePct up to 100%; each release
// point sits the configured hysteresis gap below its engage point.
func (g *Governor) thresholds(k int) (engage, release float64) {
	base := float64(g.limits.EngagePct) / 100
	gap := float64(g.limits.EngagePct-g.limits.ReleasePct) / 100
	step := (1 - base) / float64(maxLevel)
	engage = base + float64(k-1)*step
	release = engage - gap
	if release < 0 {
		release = 0
	}
	return engage, release
}

// Evaluate advances the ladder one step toward the level the current
// pressure calls for — rungs engage and release strictly one at a time,
// in order — and returns the (possibly new) level. The slow path calls
// this on its control tick.
func (g *Governor) Evaluate() (level int, changed bool) {
	p := g.Pressure()
	cur := int(g.level.Load())
	next := cur
	if cur < maxLevel {
		if e, _ := g.thresholds(cur + 1); p >= e {
			next = cur + 1
		}
	}
	if next == cur && cur > 0 {
		if _, r := g.thresholds(cur); p < r {
			next = cur - 1
		}
	}
	if next == cur {
		return cur, false
	}
	g.level.Store(int32(next))
	if next > cur {
		g.engaged[next].Add(1)
		for {
			pk := g.peakLevel.Load()
			if int32(next) <= pk || g.peakLevel.CompareAndSwap(pk, int32(next)) {
				break
			}
		}
	}
	if fn := g.onTransition; fn != nil {
		fn(cur, next)
	}
	return next, true
}

// Level returns the current degradation rung.
func (g *Governor) Level() int { return int(g.level.Load()) }

// PeakLevel returns the highest rung reached since construction.
func (g *Governor) PeakLevel() int { return int(g.peakLevel.Load()) }

// NoteShed counts one action taken by rung k (a forced cookie, a shed
// SYN, a clamped grant, a reclaimed flow).
func (g *Governor) NoteShed(k int) {
	if k > 0 && k < NumLevels {
		g.shed[k].Add(1)
	}
}

// SetTxGrant publishes the clamped per-flow TX grant (0 = unclamped).
func (g *Governor) SetTxGrant(bytes int64) { g.txGrant.Store(bytes) }

// TxGrant returns the live per-flow TX grant clamp (0 = unclamped).
func (g *Governor) TxGrant() int64 { return g.txGrant.Load() }

// Stats is a governor snapshot for telemetry and ServiceStats.
type Stats struct {
	Level     int
	PeakLevel int
	Pressure  float64

	Used [NumPools]int64
	Cap  [NumPools]int64
	Peak [NumPools]int64

	Engaged [NumLevels]uint64 // transitions onto each rung
	Shed    [NumLevels]uint64 // actions taken by each rung

	Rejects      [NumPools]uint64 // global-pool admission denials
	QuotaRejects uint64           // per-app quota denials
	Underflows   [NumPools]uint64 // un-charges clamped at zero
}

// Snapshot captures the governor's current state.
func (g *Governor) Snapshot() Stats {
	var s Stats
	s.Level = g.Level()
	s.PeakLevel = g.PeakLevel()
	s.Pressure = g.Pressure()
	for p := Pool(0); p < NumPools; p++ {
		s.Used[p] = g.occ[p].Load()
		s.Cap[p] = g.caps[p]
		s.Peak[p] = g.peak[p].Load()
		s.Rejects[p] = g.rejects[p].Load()
		s.Underflows[p] = g.underflow[p].Load()
	}
	for k := 0; k < NumLevels; k++ {
		s.Engaged[k] = g.engaged[k].Load()
		s.Shed[k] = g.shed[k].Load()
	}
	s.QuotaRejects = g.quota.Load()
	return s
}
