package telemetry

import (
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// LogHist is a fast-path-safe latency histogram: log-linear buckets
// (exact below 2^lhSubBits, then lhSubCount sub-buckets per power of
// two, HdrHistogram-style) striped across lhStripes independent count
// arrays so concurrent observers on different cores do not contend on
// the same cache lines. Observe is two relaxed atomic adds plus a
// bits.Len64 — cheap enough to call from the per-packet run loop under
// the <5% telemetry overhead gate, provided callers sample (the RTT
// sampler observes 1-in-64 ACKs, mirroring the cycle sampling).
//
// It is the product's only histogram: off-path durations (slow-path
// outages) use it too, in µs, rather than a second bucket layout.
type LogHist struct {
	stripes [lhStripes]lhStripe
}

const (
	lhSubBits  = 3
	lhSubCount = 1 << lhSubBits // sub-buckets per power of two
	// Buckets: lhSubCount exact unit buckets [0,1)..[7,8), then
	// lhSubCount per octave for exponents lhSubBits..63.
	lhBuckets = lhSubCount + (64-lhSubBits)*lhSubCount
	// lhStripes must be a power of two (Observe masks the hint).
	lhStripes = 8
)

// lhStripe pads to its own cache-line neighborhood; the counts array is
// large enough that only the trailing sum shares lines across stripes,
// hence the explicit pad.
type lhStripe struct {
	counts [lhBuckets]atomic.Uint64
	sum    atomic.Uint64
	_      [56]byte
}

// lhBucketOf maps a value to its bucket index.
func lhBucketOf(v uint64) int {
	if v < lhSubCount {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - 1 // >= lhSubBits
	sub := (v >> (exp - lhSubBits)) & (lhSubCount - 1)
	return int(uint64(exp-lhSubBits)*lhSubCount + lhSubCount + sub)
}

// lhBucketLow returns bucket b's inclusive lower bound.
func lhBucketLow(b int) float64 {
	if b < lhSubCount {
		return float64(b)
	}
	rest := b - lhSubCount
	exp := uint(rest/lhSubCount) + lhSubBits
	sub := uint64(rest % lhSubCount)
	return float64(uint64(1)<<exp) + float64(sub)*float64(uint64(1)<<(exp-lhSubBits))
}

// lhBucketHigh returns bucket b's exclusive upper bound.
func lhBucketHigh(b int) float64 {
	if b+1 >= lhBuckets {
		return math.MaxUint64
	}
	return lhBucketLow(b + 1)
}

// Observe records one value. hint selects the stripe — pass a core
// index (or any cheap per-caller integer) so concurrent observers
// spread; correctness does not depend on it.
func (h *LogHist) Observe(v uint64, hint int) {
	st := &h.stripes[hint&(lhStripes-1)]
	st.counts[lhBucketOf(v)].Add(1)
	st.sum.Add(v)
}

// merge folds the stripes into one bucket array.
func (h *LogHist) merge() (counts [lhBuckets]uint64, total, sum uint64) {
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := 0; b < lhBuckets; b++ {
			c := st.counts[b].Load()
			counts[b] += c
			total += c
		}
		sum += st.sum.Load()
	}
	return counts, total, sum
}

// Count returns the number of observations.
func (h *LogHist) Count() uint64 {
	_, total, _ := h.merge()
	return total
}

// Sum returns the sum of observed values.
func (h *LogHist) Sum() uint64 {
	_, _, sum := h.merge()
	return sum
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the containing bucket. The first bucket
// interpolates from 0, not from the bucket's lower bound — an
// all-underflow distribution reports sub-bucket quantiles instead of
// pinning to the bucket edge. Returns 0 when empty.
func (h *LogHist) Quantile(q float64) float64 {
	counts, total, _ := h.merge()
	return lhQuantile(&counts, total, q)
}

// Quantiles evaluates several quantiles over one merged snapshot.
func (h *LogHist) Quantiles(qs ...float64) []float64 {
	counts, total, _ := h.merge()
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = lhQuantile(&counts, total, q)
	}
	return out
}

func lhQuantile(counts *[lhBuckets]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for b := 0; b < lhBuckets; b++ {
		c := counts[b]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := lhBucketLow(b), lhBucketHigh(b)
			frac := float64(rank-cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return lhBucketHigh(lhBuckets - 1) // unreachable: rank <= total
}

// Mean returns the average observed value (0 when empty).
func (h *LogHist) Mean() float64 {
	_, total, sum := h.merge()
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
}

// lhQuantiles is the summary quantile set RegisterLogHist exposes.
var lhQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// RegisterLogHist registers h as a Prometheus-style summary: one gauge
// per quantile in lhQuantiles (label quantile="0.5"...), plus
// name_count and name_sum counters. Exposing interpolated quantiles
// instead of ~500 _bucket series keeps the scrape surface small; the
// raw distribution stays queryable in-process.
func (r *Registry) RegisterLogHist(name, help string, h *LogHist, labels ...Label) {
	for _, q := range lhQuantiles {
		q := q
		ql := make([]Label, 0, len(labels)+1)
		ql = append(ql, labels...)
		ql = append(ql, L("quantile", strconv.FormatFloat(q, 'g', -1, 64)))
		r.GaugeFunc(name, help, func() float64 { return h.Quantile(q) }, ql...)
	}
	r.CounterFunc(name+"_count", help+" (observation count).",
		func() float64 { return float64(h.Count()) }, labels...)
	r.CounterFunc(name+"_sum", help+" (sum of observed values).",
		func() float64 { return float64(h.Sum()) }, labels...)
}
