package stats

import (
	"math/rand"
	"testing"
)

func TestGilbertElliottDeterministic(t *testing.T) {
	cfg := DefaultGEConfig()
	a := NewGilbertElliott(rand.New(rand.NewSource(7)), cfg)
	b := NewGilbertElliott(rand.New(rand.NewSource(7)), cfg)
	for i := 0; i < 10000; i++ {
		if a.Drop() != b.Drop() {
			t.Fatalf("diverged at packet %d", i)
		}
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// With LossGood=0 every drop happens inside a bad-state burst, so
	// drops must cluster: the number of isolated drops (no drop within
	// the previous 1 packet) should be far below the total drop count.
	cfg := GEConfig{PGoodToBad: 0.01, PBadToGood: 0.2, LossGood: 0, LossBad: 0.9}
	g := NewGilbertElliott(rand.New(rand.NewSource(42)), cfg)
	const n = 100000
	drops, runs := 0, 0
	prev := false
	for i := 0; i < n; i++ {
		d := g.Drop()
		if d {
			drops++
			if !prev {
				runs++
			}
		}
		prev = d
	}
	// Stationary bad fraction = 0.01/0.21 ~= 4.8%; drop rate ~= 4.3%.
	if drops < n/50 || drops > n/10 {
		t.Fatalf("drop count %d outside expected band", drops)
	}
	// Mean run length must exceed 1.5 packets (bursty, not Bernoulli).
	if float64(drops)/float64(runs) < 1.5 {
		t.Fatalf("drops not bursty: %d drops in %d runs", drops, runs)
	}
}
