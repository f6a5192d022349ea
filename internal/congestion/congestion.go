// Package congestion implements the congestion-control algorithms TAS's
// slow path supports. The paper's prototype runs a *rate-based* DCTCP
// adaptation (§3.2): the slow path polls per-flow feedback counters from
// the fast path every control interval and writes back a new rate that
// the fast path enforces via rate buckets. TIMELY (with slow start added)
// is the second rate-based policy. Window-based DCTCP and TCP NewReno
// are provided for the baseline stacks and the ns-3-style simulations.
package congestion

// Feedback is the per-flow congestion feedback the slow path reads from
// fast-path state at each control interval: the cnt_ackb, cnt_ecnb,
// cnt_frexmits and rtt_est fields of Table 3, plus the measured send
// rate needed for the 1.2x rate cap.
type Feedback struct {
	AckedBytes uint64  // bytes newly acknowledged this interval
	EcnBytes   uint64  // of those, bytes that carried CE marks
	Frexmits   uint32  // fast retransmits triggered this interval
	Timeouts   uint32  // retransmission timeouts this interval
	RTT        int64   // latest RTT estimate, ns (0 = none)
	TxRate     float64 // measured send rate over the interval, bytes/s
}

// RateController is a rate-based congestion-control policy for one flow.
// Update consumes one control interval's feedback and returns the new
// allowed rate in bytes per second, which the fast path enforces.
type RateController interface {
	Name() string
	Update(fb Feedback) float64
	Rate() float64
}

// Config bundles the parameters shared by the rate controllers.
type Config struct {
	InitRate float64 // starting rate, bytes/s
	MinRate  float64 // floor, bytes/s
	MaxRate  float64 // link rate, bytes/s
	Step     float64 // additive-increase step, bytes/s per interval (paper default 10 Mbps)
	G        float64 // DCTCP alpha EWMA gain (default 1/16)

	// IntervalNs is the control interval τ in nanoseconds. When set,
	// slow start doubles the rate once per *RTT* (the paper's §4.1:
	// "we double the sending rate every RTT"), scaling the per-interval
	// growth factor to 2^(τ/RTT); when zero, slow start doubles once
	// per Update call.
	IntervalNs int64
}

// DefaultConfig returns the paper's defaults for the given link rate in
// bits per second.
func DefaultConfig(linkBps float64) Config {
	return Config{
		InitRate: linkBps / 8 / 100, // start at 1% of line rate
		MinRate:  125e3,             // 1 Mbps floor: recovery stays feasible
		MaxRate:  linkBps / 8,
		Step:     10e6 / 8, // 10 Mbps in bytes/s
		G:        1.0 / 16,
	}
}

func (c *Config) fill() {
	if c.MinRate <= 0 {
		c.MinRate = 1e4
	}
	if c.MaxRate <= 0 {
		c.MaxRate = 1e12
	}
	if c.InitRate <= 0 {
		c.InitRate = c.MinRate
	}
	if c.Step <= 0 {
		c.Step = 10e6 / 8
	}
	if c.G <= 0 || c.G > 1 {
		c.G = 1.0 / 16
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
