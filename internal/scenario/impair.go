package scenario

import (
	"fmt"

	tas "repro"
)

// Impairment kinds.
const (
	ImpLoss      = "loss"       // uniform loss at Rate probability
	ImpBurstLoss = "burst-loss" // Gilbert–Elliott burst loss (GE params)
	ImpClearLoss = "clear-loss" // remove uniform and burst loss
	ImpPartition = "partition"  // block the A<->B host pair
	ImpHeal      = "heal"       // heal A<->B (or everything if unset)
	ImpLinkDown  = "link-down"  // take Host's link down
	ImpLinkUp    = "link-up"    // bring Host's link back
	ImpFlap      = "flap"       // Count down/up cycles on Host (Down/Up periods)
	ImpDelay     = "delay"      // set propagation delay to Delay (needs link model)
	ImpRate      = "rate"       // set link rate to Rate Mbps (needs link model)
)

// GESpec parameterizes burst loss (see stats.GEConfig).
type GESpec struct {
	PGoodToBad float64 `json:"p_good_to_bad"`
	PBadToGood float64 `json:"p_bad_to_good"`
	LossGood   float64 `json:"loss_good"`
	LossBad    float64 `json:"loss_bad"`
}

// Impairment is one time-stamped link-schedule entry. Entries must be
// ordered by At.
type Impairment struct {
	At   Duration `json:"at"`
	Kind string   `json:"kind"`

	Rate  float64  `json:"rate,omitempty"`  // loss probability or Mbps (ImpRate)
	GE    *GESpec  `json:"ge,omitempty"`    // burst-loss parameters
	A     string   `json:"a,omitempty"`     // partition endpoint ("server", "client0", ...)
	B     string   `json:"b,omitempty"`     // partition endpoint
	Host  string   `json:"host,omitempty"`  // link-down/up/flap target
	Delay Duration `json:"delay,omitempty"` // ImpDelay value

	// Flap expansion (ImpFlap): Count down/up cycles, each Down long,
	// separated by Up of healthy link.
	Count int      `json:"count,omitempty"`
	Down  Duration `json:"down,omitempty"`
	Up    Duration `json:"up,omitempty"`
}

// impairKind is one impairment kind: what Validate checks of its
// parameters (nil: it takes none), and the fabric events it schedules.
type impairKind struct {
	validate func(s *Spec, imp Impairment, field func(string) string) error
	schedule func(r *run, idx int, imp Impairment) []schedEvent
}

var impairKinds = map[string]impairKind{
	ImpLoss: {
		validate: func(_ *Spec, imp Impairment, field func(string) string) error {
			return check(imp.Rate >= 0 && imp.Rate < 1, ErrBadSpec, field("rate"), "loss probability %v outside [0,1)", imp.Rate)
		},
		schedule: func(r *run, _ int, imp Impairment) []schedEvent {
			return once(imp, "", func() string {
				r.fab.SetLoss(imp.Rate)
				return fmt.Sprintf("loss=%.3f", imp.Rate)
			})
		},
	},
	ImpBurstLoss: {
		validate: func(_ *Spec, imp Impairment, field func(string) string) error {
			return check(imp.GE != nil, ErrBadSpec, field("ge"), "burst-loss needs ge parameters")
		},
		schedule: func(r *run, idx int, imp Impairment) []schedEvent {
			seed := r.spec.Seed + int64(idx) + 7919 // per-event derived seed
			return once(imp, "", func() string {
				r.fab.SetBurstLoss(tas.GEConfig{
					PGoodToBad: imp.GE.PGoodToBad, PBadToGood: imp.GE.PBadToGood,
					LossGood: imp.GE.LossGood, LossBad: imp.GE.LossBad,
				}, seed)
				return fmt.Sprintf("ge(pgb=%.3f pbg=%.3f lb=%.2f) seed=%d",
					imp.GE.PGoodToBad, imp.GE.PBadToGood, imp.GE.LossBad, seed)
			})
		},
	},
	ImpClearLoss: {schedule: func(r *run, _ int, imp Impairment) []schedEvent {
		return once(imp, "", func() string {
			r.fab.SetLoss(0)
			r.fab.ClearBurstLoss()
			return "loss cleared"
		})
	}},
	ImpPartition: {
		validate: func(s *Spec, imp Impairment, field func(string) string) error {
			return check(s.validHost(imp.A) && s.validHost(imp.B), ErrOutOfRange, field("a"),
				"partition endpoints %q/%q must name server or client0..client%d", imp.A, imp.B, s.Topology.Clients-1)
		},
		schedule: func(r *run, _ int, imp Impairment) []schedEvent {
			return once(imp, imp.A+"<->"+imp.B, func() string {
				r.fab.Partition(hostAddr(imp.A), hostAddr(imp.B))
				return "partitioned"
			})
		},
	},
	ImpHeal: {schedule: func(r *run, _ int, imp Impairment) []schedEvent {
		return once(imp, imp.A+"<->"+imp.B, func() string {
			if imp.A == "" || imp.B == "" {
				r.fab.HealAll()
				return "healed all"
			}
			r.fab.Heal(hostAddr(imp.A), hostAddr(imp.B))
			return "healed"
		})
	}},
	ImpLinkDown: {validate: validLinkHost, schedule: setLinkDown(true, "down")},
	ImpLinkUp:   {validate: validLinkHost, schedule: setLinkDown(false, "up")},
	ImpFlap: {
		validate: func(s *Spec, imp Impairment, field func(string) string) error {
			if err := validLinkHost(s, imp, field); err != nil {
				return err
			}
			if imp.Count <= 0 || imp.Down <= 0 || imp.Up < 0 {
				return specErr(ErrBadSpec, field("count"),
					"flap needs count>0, down>0, up>=0 (got count=%d down=%v up=%v)",
					imp.Count, imp.Down.D(), imp.Up.D())
			}
			return nil
		},
		// A flap is Count link-down/link-up pairs.
		schedule: func(r *run, _ int, imp Impairment) []schedEvent {
			var evs []schedEvent
			down, up := setLinkDown(true, "flap down"), setLinkDown(false, "flap up")
			for c, t := 0, imp.At; c < imp.Count; c++ {
				evs = append(evs, down(r, 0, Impairment{At: t, Kind: ImpLinkDown, Host: imp.Host})...)
				t += imp.Down
				evs = append(evs, up(r, 0, Impairment{At: t, Kind: ImpLinkUp, Host: imp.Host})...)
				t += imp.Up
			}
			return evs
		},
	},
	ImpDelay: {
		validate: func(s *Spec, imp Impairment, field func(string) string) error {
			if s.Link == nil {
				return specErr(ErrBadSpec, field("kind"), "delay impairment needs the link model (spec.link)")
			}
			return check(imp.Delay >= 0, ErrBadSpec, field("delay"), "negative delay %v", imp.Delay.D())
		},
		schedule: func(r *run, _ int, imp Impairment) []schedEvent {
			return once(imp, "", func() string {
				r.linkCfg.PropDelay = imp.Delay.D()
				r.fab.SetLink(*r.linkCfg)
				return fmt.Sprintf("delay=%v", imp.Delay.D())
			})
		},
	},
	ImpRate: {
		validate: func(s *Spec, imp Impairment, field func(string) string) error {
			if s.Link == nil {
				return specErr(ErrBadSpec, field("kind"), "rate impairment needs the link model (spec.link)")
			}
			if imp.Rate <= 0 {
				return specErr(ErrBadSpec, field("rate"), "rate must be positive Mbps, got %v", imp.Rate)
			}
			return nil
		},
		schedule: func(r *run, _ int, imp Impairment) []schedEvent {
			return once(imp, "", func() string {
				r.linkCfg.RateBps = imp.Rate * 1e6
				r.fab.SetLink(*r.linkCfg)
				return fmt.Sprintf("rate=%.1fMbps", imp.Rate)
			})
		},
	},
}

// once is the schedule of an impairment that is one event at its offset.
func once(imp Impairment, target string, apply func() string) []schedEvent {
	return []schedEvent{{at: imp.At.D(), end: imp.At.D(), kind: imp.Kind, target: target, apply: apply}}
}

func validLinkHost(s *Spec, imp Impairment, field func(string) string) error {
	return check(s.validHost(imp.Host), ErrOutOfRange, field("host"), "unknown host %q", imp.Host)
}

// setLinkDown schedules taking imp.Host's link down (or bringing it back).
func setLinkDown(down bool, detail string) func(*run, int, Impairment) []schedEvent {
	return func(r *run, _ int, imp Impairment) []schedEvent {
		return once(imp, imp.Host, func() string { r.fab.SetLinkDown(hostAddr(imp.Host), down); return detail })
	}
}

func (s *Spec) validateImpairments() error {
	var last Duration = -1
	for i, imp := range s.Impairments {
		field := func(sub string) string { return fmt.Sprintf("impairments[%d].%s", i, sub) }
		if err := checkAt(field, imp.At, &last, "schedule"); err != nil {
			return err
		}
		k, ok := impairKinds[imp.Kind]
		if !ok {
			return specErr(ErrUnknownKind, field("kind"), "unknown impairment kind %q", imp.Kind)
		}
		if k.validate != nil {
			if err := k.validate(s, imp, field); err != nil {
				return err
			}
		}
	}
	return nil
}
