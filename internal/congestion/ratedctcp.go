package congestion

import "math"

// RateDCTCP is the paper's rate-based DCTCP adaptation (§3.2): DCTCP's
// control law — rate decrease proportional to the fraction of ECN-marked
// bytes — applied to flow rates instead of windows. During slow start the
// rate doubles every control interval until the first congestion
// indication; afterwards additive increase adds a configurable step
// (10 Mbps by default). To prevent rates growing arbitrarily in the
// absence of congestion, each update first caps the rate at 20% above
// the flow's measured send rate.
type RateDCTCP struct {
	cfg       Config
	rate      float64
	alpha     float64
	slowStart bool
}

// NewRateDCTCP returns a controller with the given configuration. Alpha
// starts at 1 (standard DCTCP initialization) so the first congestion
// indication cuts decisively; it decays if marking stays low.
func NewRateDCTCP(cfg Config) *RateDCTCP {
	cfg.fill()
	return &RateDCTCP{cfg: cfg, rate: cfg.InitRate, alpha: 1, slowStart: true}
}

// Name implements RateController.
func (d *RateDCTCP) Name() string { return "rate-dctcp" }

// Rate returns the current allowed rate in bytes/s.
func (d *RateDCTCP) Rate() float64 { return d.rate }

// InSlowStart reports whether the flow is still in slow start.
func (d *RateDCTCP) InSlowStart() bool { return d.slowStart }

// Update implements RateController.
func (d *RateDCTCP) Update(fb Feedback) float64 {
	// Rate cap: no more than 20% above the measured send rate, so an
	// application that stops sending does not accumulate an arbitrarily
	// high allowance (§3.2).
	if fb.TxRate > 0 && d.rate > 1.2*fb.TxRate {
		d.rate = 1.2 * fb.TxRate
	}

	// ECN fraction for this interval.
	var frac float64
	if fb.AckedBytes > 0 {
		frac = float64(fb.EcnBytes) / float64(fb.AckedBytes)
		if frac > 1 {
			frac = 1
		}
		d.alpha = (1-d.cfg.G)*d.alpha + d.cfg.G*frac
	}

	switch {
	case fb.Timeouts > 0:
		// Severe congestion: restart from the floor like a window stack
		// collapsing to one segment.
		d.slowStart = false
		d.rate = d.cfg.MinRate
	case frac > 0 || fb.Frexmits > 0:
		d.slowStart = false
		cut := d.alpha / 2
		if fb.Frexmits > 0 && cut < 0.5 {
			// Loss without marks still needs a multiplicative response.
			cut = 0.5
		}
		d.rate *= 1 - cut
	case d.slowStart:
		// Slow start: double per RTT (§4.1), but never more than double
		// in one control interval (§3.2) — rate growth without
		// ack-clocking must stay bounded per feedback cycle or the
		// uncontrolled overshoot blasts queues before marks return.
		factor := 2.0
		if d.cfg.IntervalNs > 0 && fb.RTT > 0 {
			e := float64(d.cfg.IntervalNs) / float64(fb.RTT)
			if e > 1 {
				e = 1
			}
			factor = math.Pow(2, e)
		}
		d.rate *= factor
	default:
		d.rate += d.cfg.Step
	}

	d.rate = clamp(d.rate, d.cfg.MinRate, d.cfg.MaxRate)
	return d.rate
}
