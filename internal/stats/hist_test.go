package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1, 1.5, 50)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram should report zeros")
	}
	h.Add(10)
	h.Add(20)
	h.Add(30)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if got := h.Mean(); got != 20 {
		t.Fatalf("mean = %v, want 20", got)
	}
	if h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("min/max = %v/%v, want 10/30", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(1))
	var exact []float64
	for i := 0; i < 100000; i++ {
		v := rng.ExpFloat64() * 50000 // mean 50us in ns
		h.Add(v)
		exact = append(exact, v)
	}
	c := NewCDF()
	for _, v := range exact {
		c.Add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := c.Quantile(q)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("q=%v: hist %v vs exact %v (>5%% error)", q, got, want)
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram(1, 1.3, 80)
		for _, v := range vals {
			h.Add(float64(v%1000000) + 1)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileWithinObservedRange(t *testing.T) {
	f := func(vals []uint16, qi uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram(1, 2, 40)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			x := float64(v) + 0.5
			h.Add(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		q := float64(qi) / 255
		v := h.Quantile(q)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(1, 2, 4) // covers up to 16
	h.Add(1e12)
	if h.Count() != 1 || h.Max() != 1e12 {
		t.Fatal("overflow value not recorded")
	}
	// Quantile clamps to observed max.
	if got := h.Quantile(0.99); got != 1e12 {
		t.Fatalf("overflow quantile = %v", got)
	}
}

func TestHistogramInvalidParamsPanics(t *testing.T) {
	for _, c := range []struct {
		min, g float64
		n      int
	}{
		{0, 2, 10}, {1, 1, 10}, {1, 2, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%v,%d) should panic", c.min, c.g, c.n)
				}
			}()
			NewHistogram(c.min, c.g, c.n)
		}()
	}
}

func TestCDFExactQuantiles(t *testing.T) {
	c := NewCDF()
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	}
	for _, tc := range cases {
		if got := c.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if c.Mean() != 50.5 {
		t.Errorf("mean = %v, want 50.5", c.Mean())
	}
	if c.Min() != 1 || c.Max() != 100 {
		t.Errorf("min/max = %v/%v", c.Min(), c.Max())
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF()
	if c.Quantile(0.5) != 0 || c.Mean() != 0 || c.Min() != 0 || c.Max() != 0 || c.Count() != 0 {
		t.Fatal("empty CDF should report zeros")
	}
	if c.Points(10) != nil {
		t.Fatal("empty CDF points should be nil")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF()
	for i := 1; i <= 1000; i++ {
		c.Add(float64(i))
	}
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
	if pts[9][0] != 1000 || pts[9][1] != 1 {
		t.Fatalf("last point = %v, want [1000 1]", pts[9])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatal("points must be nondecreasing")
		}
	}
	// n<=0 returns all points.
	if got := len(c.Points(0)); got != 1000 {
		t.Fatalf("Points(0) len = %d, want 1000", got)
	}
}

func TestRunning(t *testing.T) {
	var r Running
	if r.Count() != 0 || r.Variance() != 0 {
		t.Fatal("zero Running should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.Count() != 8 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", r.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(r.Variance()-32.0/7.0) > 1e-9 {
		t.Fatalf("variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
}

func TestHistogramEmptyQuantiles(t *testing.T) {
	h := NewHistogram(100, 1.5, 16)
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty Mean/Min/Max = %v/%v/%v, want all 0", h.Mean(), h.Min(), h.Max())
	}
}

func TestHistogramSingleSampleQuantiles(t *testing.T) {
	// One sample: every quantile is that sample, regardless of where it
	// lands inside a (coarse) bucket — min/max clamping must win over
	// the bucket upper bound.
	h := NewHistogram(100, 2, 8)
	h.Add(137)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 137 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 137", q, got)
		}
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	// A one-bucket histogram degenerates to [0, min) plus overflow; all
	// quantiles must still stay inside the observed range.
	h := NewHistogram(10, 1.5, 1)
	h.Add(3)
	h.Add(7)
	h.Add(25) // overflow bucket
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		if got < 3 || got > 25 {
			t.Fatalf("single-bucket Quantile(%v) = %v, outside observed [3, 25]", q, got)
		}
	}
	if h.Quantile(0) != 3 {
		t.Fatalf("p0 = %v, want exact min 3", h.Quantile(0))
	}
	if h.Quantile(1) != 25 {
		t.Fatalf("p100 = %v, want exact max 25", h.Quantile(1))
	}
}

func TestHistogramExtremeQuantilesExact(t *testing.T) {
	// p0 and p100 return the exact observed extremes, not bucket
	// boundaries, and out-of-range q clamps to them.
	h := NewHistogram(100, 2, 8)
	for _, v := range []float64{101, 333, 999} {
		h.Add(v)
	}
	if got := h.Quantile(0); got != 101 {
		t.Fatalf("p0 = %v, want exact min 101", got)
	}
	if got := h.Quantile(1); got != 999 {
		t.Fatalf("p100 = %v, want exact max 999", got)
	}
	if got := h.Quantile(-0.5); got != 101 {
		t.Fatalf("Quantile(-0.5) = %v, want min 101", got)
	}
	if got := h.Quantile(1.5); got != 999 {
		t.Fatalf("Quantile(1.5) = %v, want max 999", got)
	}
	if h.Quantile(1) != h.Max() || h.Quantile(0) != h.Min() {
		t.Fatal("p100/p0 must equal Max()/Min()")
	}
}

func TestHistogramUnderflowInterpolatesFromZero(t *testing.T) {
	// Values below min all land in the underflow bucket [0, min). The
	// quantile must interpolate from 0 across that bucket instead of
	// reporting everything at the bucket's upper edge, so a distribution
	// concentrated below min still has a spread of quantiles.
	h := NewHistogram(1000, 2, 8)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i % 100)) // all << min
	}
	p25, p50, p75 := h.Quantile(0.25), h.Quantile(0.5), h.Quantile(0.75)
	if !(p25 < p50 && p50 < p75) {
		t.Fatalf("underflow quantiles not spread: p25=%v p50=%v p75=%v", p25, p50, p75)
	}
	// Interpolating [0, 1000) linearly: p50 lands mid-bucket, nowhere
	// near the old answer of min=1000 (clamped to maxSeen=99).
	if p50 >= 99 {
		t.Fatalf("p50 = %v, want < maxSeen 99 (old edge-reporting behavior)", p50)
	}
	if p25 < 0 {
		t.Fatalf("p25 = %v, want >= 0", p25)
	}
}

func TestHistogramQuantileInterpolatesWithinBucket(t *testing.T) {
	// 100 observations spread across one wide bucket [64, 128): the
	// interpolated quantiles must fall strictly inside the bucket and
	// increase with q instead of all reporting the upper edge.
	h := NewHistogram(1, 2, 10)
	for i := 0; i < 100; i++ {
		h.Add(64 + float64(i)*0.64) // all in [64, 128)
	}
	p10, p90 := h.Quantile(0.1), h.Quantile(0.9)
	if !(p10 < p90) {
		t.Fatalf("within-bucket quantiles not spread: p10=%v p90=%v", p10, p90)
	}
	if p10 < 64 || p90 > 128 {
		t.Fatalf("quantiles escaped bucket: p10=%v p90=%v", p10, p90)
	}
}
