package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	tas "repro"
)

// Attack kinds.
const (
	AttackSynFlood = "syn-flood" // spoofed SYNs at Rate pps against Port
)

// Attack is one time-stamped adversarial-traffic window: a raw packet
// source on the fabric forges segments with spoofed source addresses
// (replies route nowhere, as for a real blind attacker). Entries must
// be ordered by At. While any attack window is open, the executor's
// control-port prober (see Assertions.ProbeP99) measures handshake
// latency on a second port, not the attacked one.
type Attack struct {
	At   Duration `json:"at"`
	For  Duration `json:"for"`            // attack window length
	Kind string   `json:"kind"`           // "syn-flood"
	Rate int      `json:"rate,omitempty"` // packets/sec (default 50000)
	Port uint16   `json:"port,omitempty"` // target port (default: the workload port)
}

// attackKind is one attack kind: the burst of forged segments it sends
// the server's port each tick of its window (returning how many went
// out), and what the timeline calls it.
type attackKind struct {
	burst func(atk *tas.Attacker, port uint16, n int, rng *rand.Rand) int
	what  string
}

var attackKinds = map[string]attackKind{
	AttackSynFlood: {
		burst: func(atk *tas.Attacker, port uint16, n int, rng *rand.Rand) int {
			sent, _ := atk.SynBurst("10.0.0.1", port, n, rng)
			return sent
		},
		what: "spoofed SYN flood",
	},
}

func (s *Spec) validateAttacks() error {
	var last Duration = -1
	for i, a := range s.Attacks {
		field := func(sub string) string { return fmt.Sprintf("attacks[%d].%s", i, sub) }
		if _, ok := attackKinds[a.Kind]; !ok {
			return specErr(ErrUnknownKind, field("kind"), "unknown attack kind %q", a.Kind)
		}
		if err := checkAt(field, a.At, &last, "schedule"); err != nil {
			return err
		}
		if a.For <= 0 {
			return specErr(ErrBadSpec, field("for"), "attack window needs a positive duration")
		}
		if a.Rate < 0 {
			return specErr(ErrBadSpec, field("rate"), "negative rate %d", a.Rate)
		}
	}
	return nil
}

// attackEvent schedules one adversarial-traffic window. The attack runs
// on its own goroutine so the timeline player is free to fire later
// events while the attack is still in progress; so does the window's
// second-port prober, when the run asserts on it.
func (r *run) attackEvent(idx int, a Attack) schedEvent {
	port := a.Port
	if port == 0 {
		port = serverPort
	}
	ev := schedEvent{
		at: a.At.D(), end: a.At.D() + a.For.D(),
		kind: a.Kind, target: fmt.Sprintf("server:%d", port),
	}
	ev.apply = func() string {
		k := attackKinds[a.Kind]
		rng := rand.New(rand.NewSource(r.spec.Seed + int64(idx)*104729 + 13))
		end := r.start.Add(ev.end)
		go func() {
			// Burst every 2ms: at 50K pps that is 100 segments per tick,
			// comfortably inside one fabric-delivery quantum.
			const tick = 2 * time.Millisecond
			per := max(1, int(int64(a.Rate)*int64(tick)/int64(time.Second)))
			tk := time.NewTicker(tick)
			defer tk.Stop()
			for time.Now().Before(end) && !r.stopped() {
				r.synsSent.Add(int64(k.burst(r.attacker, port, per, rng)))
				select {
				case <-r.stop:
					return
				case <-tk.C:
				}
			}
		}()
		if r.spec.Assert.ProbeP99 > 0 {
			r.bg.Add(1)
			go func() { defer r.bg.Done(); r.probe(end) }()
		}
		return fmt.Sprintf("%s: %d pps on port %d for %v", k.what, a.Rate, port, a.For.D())
	}
	return ev
}

// probe dials the probe port — a second port, not the workload port —
// until end, recording handshake latency. It is the run's control: a
// flood on one port must not slow handshakes on another.
func (r *run) probe(end time.Time) {
	ctx := r.clients[0].NewContext()
	for time.Now().Before(end) {
		t0 := time.Now()
		c, err := ctx.DialTimeout("10.0.0.1", probePort, opTimeout)
		lat := time.Since(t0)
		r.mu.Lock()
		if err != nil {
			r.probeFails++
		} else {
			r.probeLat = append(r.probeLat, lat)
		}
		r.mu.Unlock()
		if c != nil {
			c.Close()
		}
		if !r.sleep(5 * time.Millisecond) {
			return
		}
	}
}

// probeSummary reduces the prober's latency samples.
func probeSummary(lat []time.Duration, fails int) *ProbeResult {
	p := &ProbeResult{Dials: len(lat), Fails: fails}
	if len(lat) == 0 {
		return p
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	pct := func(q float64) time.Duration {
		i := int(q*float64(len(sorted))+0.5) - 1
		return sorted[max(0, min(i, len(sorted)-1))]
	}
	p.P50MS = ms(pct(0.50))
	p.P99MS = ms(pct(0.99))
	p.MaxMS = ms(sorted[len(sorted)-1])
	return p
}
