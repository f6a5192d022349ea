// Package stats provides the statistics toolkit used throughout the TAS
// reproduction: log-bucketed histograms for latency, exact-quantile CDF
// collectors, running moments, and the random variate generators the
// paper's workloads need (Zipf with s<1, bounded Pareto, exponential
// inter-arrivals).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a log-bucketed histogram intended for latency-like values
// spanning several orders of magnitude. Buckets grow geometrically from
// Min with the given growth factor; values below Min land in bucket 0 and
// values above the top bucket land in the overflow bucket. It records
// exact count, sum, min and max so means are exact even though quantiles
// are approximate (bounded by the bucket width, ~growth-1 relative error).
type Histogram struct {
	min     float64
	growth  float64
	logG    float64
	buckets []uint64
	count   uint64
	sum     float64
	minSeen float64
	maxSeen float64
}

// NewHistogram returns a histogram covering [min, min*growth^nbuckets)
// with geometric buckets. growth must be > 1 and min > 0.
func NewHistogram(min, growth float64, nbuckets int) *Histogram {
	if min <= 0 || growth <= 1 || nbuckets <= 0 {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{
		min:     min,
		growth:  growth,
		logG:    math.Log(growth),
		buckets: make([]uint64, nbuckets+1), // +1 overflow
		minSeen: math.Inf(1),
		maxSeen: math.Inf(-1),
	}
}

// NewLatencyHistogram returns a histogram suited for latencies in
// nanoseconds from 100ns to ~100s with ~2% bucket resolution.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(100, 1.02, 1050)
}

func (h *Histogram) bucketOf(v float64) int {
	if v < h.min {
		return 0
	}
	b := int(math.Log(v/h.min)/h.logG) + 1
	if b >= len(h.buckets) {
		return len(h.buckets) - 1
	}
	return b
}

// Add records a single observation.
func (h *Histogram) Add(v float64) {
	h.buckets[h.bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.minSeen {
		h.minSeen = v
	}
	if v > h.maxSeen {
		h.maxSeen = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact mean of recorded observations (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded observation (0 if empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.minSeen
}

// Max returns the largest recorded observation (0 if empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.maxSeen
}

// bucketUpper returns the upper edge of bucket b.
func (h *Histogram) bucketUpper(b int) float64 {
	if b == 0 {
		return h.min
	}
	return h.min * math.Pow(h.growth, float64(b))
}

// bucketLower returns the lower edge of bucket b. The underflow bucket
// spans [0, min): everything below min lands there, so its lower edge
// is 0, not min.
func (h *Histogram) bucketLower(b int) float64 {
	if b == 0 {
		return 0
	}
	return h.min * math.Pow(h.growth, float64(b-1))
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by
// linear interpolation within the bucket containing the target rank.
// The underflow bucket interpolates from 0 — not from the histogram's
// configured min — so distributions concentrated below min are not all
// reported as min; the overflow bucket uses the observed max as its
// upper edge. The result is clamped to the observed min/max so tails
// are never exaggerated beyond actually-seen values.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.minSeen
	}
	if q >= 1 {
		return h.maxSeen
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.buckets {
		if cum+c >= rank && c > 0 {
			lo, hi := h.bucketLower(b), h.bucketUpper(b)
			if hi > h.maxSeen {
				hi = h.maxSeen
			}
			frac := float64(rank-cum) / float64(c)
			v := lo + (hi-lo)*frac
			if v > h.maxSeen {
				v = h.maxSeen
			}
			if v < h.minSeen {
				v = h.minSeen
			}
			return v
		}
		cum += c
	}
	return h.maxSeen
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())
}

// CDF collects exact samples and reports exact empirical quantiles. Use
// it when sample counts are modest (e.g. per-flow completion times);
// use Histogram for per-packet scales.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF returns an empty CDF collector.
func NewCDF() *CDF { return &CDF{} }

// Add records one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// Count returns the number of samples recorded.
func (c *CDF) Count() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the exact empirical q-quantile using the nearest-rank
// method. Returns 0 for an empty collector.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	if q <= 0 {
		return c.samples[0]
	}
	rank := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(c.samples) {
		rank = len(c.samples) - 1
	}
	return c.samples[rank]
}

// Mean returns the sample mean (0 if empty).
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range c.samples {
		s += v
	}
	return s / float64(len(c.samples))
}

// Min returns the smallest sample (0 if empty).
func (c *CDF) Min() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	return c.samples[0]
}

// Max returns the largest sample (0 if empty).
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	return c.samples[len(c.samples)-1]
}

// Points returns (value, cumulative fraction) pairs suitable for plotting
// a CDF, downsampled to at most n points (n<=0 means all samples).
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.samples) == 0 {
		return nil
	}
	c.sort()
	total := len(c.samples)
	if n <= 0 || n > total {
		n = total
	}
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * total / n
		if idx > total {
			idx = total
		}
		pts = append(pts, [2]float64{c.samples[idx-1], float64(idx) / float64(total)})
	}
	return pts
}

// Running tracks count, mean, variance (Welford), min and max without
// retaining samples.
type Running struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (r *Running) Add(v float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = v, v
	} else {
		if v < r.min {
			r.min = v
		}
		if v > r.max {
			r.max = v
		}
	}
	d := v - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (v - r.mean)
}

// Count returns the number of observations.
func (r *Running) Count() uint64 { return r.n }

// Mean returns the running mean (0 if empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the sample variance (0 if fewer than 2 observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Min returns the smallest observation (0 if empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 if empty).
func (r *Running) Max() float64 { return r.max }
