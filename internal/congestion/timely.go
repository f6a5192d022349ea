package congestion

// TIMELY is the RTT-gradient rate controller of Mittal et al. (SIGCOMM
// 2015), adapted for TCP by adding slow start (as the paper does). RTT
// samples come from TCP timestamps. Between the Tlow and Thigh guard
// bands, the normalized RTT gradient drives additive increase (gradient
// <= 0) or multiplicative decrease (gradient > 0).
type TIMELY struct {
	cfg Config

	// Guard bands and gains, per the TIMELY paper's recommendations
	// scaled for intra-datacenter RTTs.
	TLow, THigh int64   // ns
	MinRTT      int64   // ns, normalization base
	Beta        float64 // multiplicative decrease factor
	AddStep     float64 // additive increase step, bytes/s
	EWMAAlpha   float64 // gradient smoothing

	rate      float64
	prevRTT   int64
	rttDiff   float64 // smoothed RTT difference, ns
	slowStart bool
	hai       int // consecutive gradient<=0 intervals for hyper-active increase
}

// NewTIMELY returns a TIMELY controller with datacenter defaults
// (Tlow=50us, Thigh=500us, minRTT=20us, beta=0.8).
func NewTIMELY(cfg Config) *TIMELY {
	cfg.fill()
	return &TIMELY{
		cfg:       cfg,
		TLow:      50_000,
		THigh:     500_000,
		MinRTT:    20_000,
		Beta:      0.8,
		AddStep:   cfg.Step,
		EWMAAlpha: 0.3,
		rate:      cfg.InitRate,
		slowStart: true,
	}
}

// Name implements RateController.
func (t *TIMELY) Name() string { return "timely" }

// Rate returns the current allowed rate in bytes/s.
func (t *TIMELY) Rate() float64 { return t.rate }

// Update implements RateController.
func (t *TIMELY) Update(fb Feedback) float64 {
	if fb.TxRate > 0 && t.rate > 1.2*fb.TxRate {
		t.rate = 1.2 * fb.TxRate
	}
	if fb.Timeouts > 0 {
		t.slowStart = false
		t.rate = clamp(t.cfg.MinRate, t.cfg.MinRate, t.cfg.MaxRate)
		return t.rate
	}
	if fb.RTT <= 0 {
		// No sample: hold, unless still in slow start with progress.
		if t.slowStart && fb.AckedBytes > 0 {
			t.rate = clamp(t.rate*2, t.cfg.MinRate, t.cfg.MaxRate)
		}
		return t.rate
	}

	newRTT := fb.RTT
	if t.prevRTT == 0 {
		t.prevRTT = newRTT
	}
	diff := float64(newRTT - t.prevRTT)
	t.prevRTT = newRTT
	t.rttDiff = (1-t.EWMAAlpha)*t.rttDiff + t.EWMAAlpha*diff
	gradient := t.rttDiff / float64(t.MinRTT)

	// Slow start: double until the RTT signals queueing.
	if t.slowStart {
		if newRTT < t.THigh && gradient <= 0.1 {
			t.rate = clamp(t.rate*2, t.cfg.MinRate, t.cfg.MaxRate)
			return t.rate
		}
		t.slowStart = false
	}

	switch {
	case newRTT < t.TLow:
		t.rate += t.AddStep
		t.hai = 0
	case newRTT > t.THigh:
		t.rate *= 1 - t.Beta*(1-float64(t.THigh)/float64(newRTT))
		t.hai = 0
	case gradient <= 0:
		t.hai++
		n := 1.0
		if t.hai >= 5 {
			n = 5 // hyper-active increase after 5 calm intervals
		}
		t.rate += n * t.AddStep
	default:
		t.hai = 0
		t.rate *= 1 - t.Beta*gradient
	}

	t.rate = clamp(t.rate, t.cfg.MinRate, t.cfg.MaxRate)
	return t.rate
}
