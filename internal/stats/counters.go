package stats

import "sync/atomic"

// Gauge is a concurrency-safe level indicator: unlike a monotonic
// counter it rises and falls, tracking the current size of a
// pool or queue (e.g. live payload-buffer bytes awaiting reclamation).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }
