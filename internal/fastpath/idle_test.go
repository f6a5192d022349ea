package fastpath

import (
	"math/rand"
	"testing"
	"time"
)

// dutyCycle replays a core's day against the idle policy the way the
// run loop does — work, then poll in pollStep slices until the next
// arrival or until credit runs out, then park until the arrival — and
// reports what the policy decided.
type dutyCycle struct {
	p              idlePolicy
	now            int64
	workNs, pollNs int64
	parks          int
	maxCredit      int64 // peak credit seen
	slowestNs      int64 // longest poll that ended in a park
}

const pollStep = 200 // ns per empty poll, the order of one loop iteration

// cycle runs one busy stretch and the gap after it; it returns how long
// the core polled in the gap and whether it ended the gap parked.
func (d *dutyCycle) cycle(busy, gap int64) (polled int64, parked bool) {
	d.now += busy
	d.workNs += d.p.worked(d.now)
	d.maxCredit = max(d.maxCredit, d.p.credit)
	start, end := d.now, d.now+gap
	for d.now < end {
		if !d.p.mayPoll() {
			d.parks++
			polled = d.now - start
			d.slowestNs = max(d.slowestNs, polled)
			d.now = end
			d.p.parked(d.now)
			return polled, true
		}
		d.now = min(d.now+pollStep, end)
		d.pollNs += d.p.polled(d.now)
	}
	return gap, false
}

// TestIdlePolicyDutyCycles holds the rule to the three duty cycles it
// was sized on: the two that must keep polling as they did under the
// fixed 200us window, and the one that must stop burning a CPU.
func TestIdlePolicyDutyCycles(t *testing.T) {
	const us = 1000
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name      string
		busy      int64
		gap       func() int64
		warm      int // cycles before parks count
		wantParks bool
	}{
		{"bulk sender: 40us of segments, 90us to the next ACK batch", 40 * us, func() int64 { return 90 * us }, 0, false},
		{"closed-loop RPC: 1.5us per packet, 4us to the next", 1500, func() int64 { return 4 * us }, 8, false},
		{"closed-loop RPC with jitter", 1500, func() int64 { return 2*us + rng.Int63n(4*us) }, 8, false},
		{"paced RPC: 4us per request, Poisson 50us gaps", 4 * us, func() int64 { return int64(rng.ExpFloat64() * 50 * us) }, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d dutyCycle
			cycles, parkedAfterWarm, longGaps := 20000, 0, 0
			for i := 0; i < cycles; i++ {
				gap := tc.gap()
				fresh := d.p.credit == 0 // the previous gap ended in a park
				polled, parked := d.cycle(tc.busy, gap)
				if parked && i >= tc.warm {
					parkedAfterWarm++
				}
				// A request that found the core parked and is followed by a
				// real lull: the core must be back on its doorbell within
				// 20us, not 200.
				if tc.wantParks && fresh && gap > 20*us {
					longGaps++
					if !parked {
						t.Fatalf("cycle %d: %dns gap after an isolated request and the core never parked", i, gap)
					}
					if polled > 20*us {
						t.Fatalf("cycle %d: polled %dns before parking", i, polled)
					}
				}
			}
			if d.maxCredit > int64(spinWindow) {
				t.Fatalf("credit peaked at %dns, above the %v cap", d.maxCredit, spinWindow)
			}
			// The last poll before a park may overdraw by one step.
			if d.pollNs > creditPerWork*d.workNs+int64(d.parks)*pollStep {
				t.Fatalf("polled %dns for %dns of work: more than %dx", d.pollNs, d.workNs, creditPerWork)
			}
			if !tc.wantParks && parkedAfterWarm > 0 {
				t.Fatalf("parked %d times in %d cycles; this duty cycle must keep polling", parkedAfterWarm, cycles)
			}
			if tc.wantParks {
				if longGaps < cycles/10 {
					t.Fatalf("only %d isolated requests in %d cycles: the schedule does not exercise the rule", longGaps, cycles)
				}
				if d.slowestNs > int64(spinWindow) {
					t.Fatalf("slowest park took %dns of polling", d.slowestNs)
				}
				// Idle CPU follows the work: polling costs at most 4x the
				// 8% duty cycle, not the 100% a fixed window burns at 50us
				// mean gaps.
				if share := float64(d.pollNs) / float64(d.now); share > 0.35 {
					t.Fatalf("polling took %.0f%% of wall time at an 8%% duty cycle", 100*share)
				}
			}
		})
	}
}

// TestIdlePolicyCreditIsCapped: an hour of solid work buys one
// spinWindow of polling, no more.
func TestIdlePolicyCreditIsCapped(t *testing.T) {
	var p idlePolicy
	p.worked(int64(time.Hour))
	if p.credit != int64(spinWindow) {
		t.Fatalf("credit %d after an hour of work, want the cap %d", p.credit, int64(spinWindow))
	}
	now := int64(time.Hour)
	for polled := int64(0); p.mayPoll(); polled += pollStep {
		if polled > int64(spinWindow) {
			t.Fatalf("still polling %dns into the lull", polled)
		}
		now += pollStep
		p.polled(now)
	}
}

func TestIdleClock(t *testing.T) {
	var c idleClock
	if got := c.total(500); got != 0 {
		t.Fatalf("fresh clock reads %d", got)
	}
	c.enter(1000)
	if got := c.total(1400); got != 400 {
		t.Fatalf("mid-stretch total %d, want 400", got)
	}
	c.leave(1600)
	if got := c.total(9999); got != 600 {
		t.Fatalf("total after the stretch %d, want 600", got)
	}
	c.enter(2000)
	c.leave(2001)
	c.enter(3000)
	if got := c.total(3100); got != 701 {
		t.Fatalf("total over three stretches %d, want 701", got)
	}
}
