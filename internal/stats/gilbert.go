package stats

import "math/rand"

// GEConfig parameterizes the Gilbert–Elliott two-state Markov loss
// model: the channel alternates between a good state (rare, independent
// loss) and a bad state (dense, bursty loss). Transitions are evaluated
// once per packet, so the mean burst length is 1/PBadToGood packets and
// the stationary bad-state probability is
// PGoodToBad/(PGoodToBad+PBadToGood).
type GEConfig struct {
	PGoodToBad float64 // per-packet transition probability good -> bad
	PBadToGood float64 // per-packet transition probability bad -> good
	LossGood   float64 // drop probability while in the good state
	LossBad    float64 // drop probability while in the bad state
}

// DefaultGEConfig is a moderate bursty-loss channel: ~2% of packets
// enter a burst, bursts last ~5 packets, and packets inside a burst are
// dropped 3 times out of 4.
func DefaultGEConfig() GEConfig {
	return GEConfig{PGoodToBad: 0.02, PBadToGood: 0.2, LossGood: 0, LossBad: 0.75}
}

// GilbertElliott is the model's per-channel state. Not safe for
// concurrent use; callers serialize (per-port in the simulator, under
// the fabric lock in live mode).
type GilbertElliott struct {
	cfg GEConfig
	rng *rand.Rand
	bad bool
}

// NewGilbertElliott returns a channel driven by rng, starting in the
// good state.
func NewGilbertElliott(rng *rand.Rand, cfg GEConfig) *GilbertElliott {
	return &GilbertElliott{cfg: cfg, rng: rng}
}

// Drop advances the state machine by one packet and reports whether
// that packet is lost.
func (g *GilbertElliott) Drop() bool {
	if g.bad {
		if g.rng.Float64() < g.cfg.PBadToGood {
			g.bad = false
		}
	} else {
		if g.rng.Float64() < g.cfg.PGoodToBad {
			g.bad = true
		}
	}
	p := g.cfg.LossGood
	if g.bad {
		p = g.cfg.LossBad
	}
	return p > 0 && g.rng.Float64() < p
}
