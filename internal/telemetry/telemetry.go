// Package telemetry is the unified observability layer of the TAS
// reproduction: a labeled metrics registry with lock-free hot-path
// counters (per-core padded atomics, merged on scrape) and
// Prometheus-style text / JSON exposition, a per-flow flight recorder
// (a bounded ring of trace events emitted by the fast path, slow path,
// and libtas), and per-core cycle accounting that attributes executed
// time to named modules (rx, tx, cc, timer, reaper, app-copy) — the
// instrumentation behind the paper's Table 1 breakdown and the
// tail-latency/scalability figures.
//
// The whole subsystem is opt-in: a service built without telemetry
// carries only nil-pointer checks on its hot paths.
package telemetry

import (
	"sync/atomic"
	"time"
)

// Config parameterizes one service's telemetry.
type Config struct {
	// Enabled turns the subsystem on. When false the service records
	// nothing and Metrics()/Telemetry() return nil.
	Enabled bool

	// FlightRingSize is the per-flow flight-recorder ring capacity in
	// events (default 64). Older events are overwritten; the ring
	// reports how many were lost.
	FlightRingSize int

	// RetiredRings is how many closed/aborted flows' rings are kept for
	// post-mortem inspection (default 32).
	RetiredRings int

	// TimeSeriesInterval is the period of the registry time-series
	// recorder (default 100ms; < 0 disables recording entirely).
	TimeSeriesInterval time.Duration

	// TimeSeriesPoints bounds the time-series ring (default 600 points
	// — one minute at the default interval; older points are evicted).
	TimeSeriesPoints int
}

func (c *Config) fill() {
	if c.FlightRingSize <= 0 {
		c.FlightRingSize = 64
	}
	if c.RetiredRings <= 0 {
		c.RetiredRings = 32
	}
	if c.TimeSeriesInterval == 0 {
		c.TimeSeriesInterval = 100 * time.Millisecond
	}
	if c.TimeSeriesPoints <= 0 {
		c.TimeSeriesPoints = 600
	}
}

// Telemetry bundles one service's observability state: the metrics
// registry, the flow flight recorder, and the per-core cycle accounts.
type Telemetry struct {
	Registry *Registry
	Recorder *Recorder
	Cycles   *CycleStats

	// Latency histograms (µs), observed from the hot paths under
	// sampling: smoothed RTT and RTT variance on ACK processing (fast
	// path), handshake completion in the slow path, and app
	// wakeup-to-ready latency in libtas. All are striped LogHists so
	// concurrent cores never contend on a shared cache line.
	RTT       *LogHist
	RTTVar    *LogHist
	Handshake *LogHist
	Wakeup    *LogHist

	// Series records periodic registry snapshots (nil when disabled).
	// The owning service starts and stops it with its own lifecycle.
	Series *TimeSeries

	epoch  time.Time
	cached atomic.Int64 // coarse clock: last published Now(), see CachedNow
}

// New builds a telemetry hub for a service with the given number of
// fast-path cores.
func New(cfg Config, fastCores int) *Telemetry {
	cfg.fill()
	t := &Telemetry{epoch: time.Now()}
	t.Registry = NewRegistry()
	t.Recorder = NewRecorder(cfg.FlightRingSize, cfg.RetiredRings, t.CachedNow)
	t.Cycles = NewCycleStats(fastCores)
	t.RTT = &LogHist{}
	t.RTTVar = &LogHist{}
	t.Handshake = &LogHist{}
	t.Wakeup = &LogHist{}
	if cfg.TimeSeriesInterval > 0 {
		t.Series = NewTimeSeries(t.Registry, cfg.TimeSeriesInterval, cfg.TimeSeriesPoints)
	}
	return t
}

// CachedNow returns the most recently published timestamp — a coarse,
// monotone non-decreasing clock costing one atomic load. It is
// refreshed by code that reads the real clock anyway (the fast-path
// run loop's sampled batch timing, the slow path's control tick, and
// libtas's app-copy timing), so while traffic flows it stays within a
// few batch times of Now(). Flight-recorder events use it: event order
// and µs-scale spacing survive; sub-batch timing precision does not.
func (t *Telemetry) CachedNow() int64 { return t.cached.Load() }

// RefreshNow reads the real clock, publishes it for CachedNow, and
// returns it. Concurrent publishers race monotonically: the cached
// value only moves forward.
func (t *Telemetry) RefreshNow() int64 {
	now := time.Since(t.epoch).Nanoseconds()
	for {
		old := t.cached.Load()
		if now <= old || t.cached.CompareAndSwap(old, now) {
			return now
		}
	}
}
