package congestion

import (
	"math"
	"testing"
	"testing/quick"
)

func cfg() Config {
	return Config{InitRate: 1e6, MinRate: 1e4, MaxRate: 1.25e9, Step: 10e6 / 8, G: 1.0 / 16}
}

func TestRateDCTCPSlowStartDoubles(t *testing.T) {
	d := NewRateDCTCP(cfg())
	if !d.InSlowStart() {
		t.Fatal("should start in slow start")
	}
	r0 := d.Rate()
	r1 := d.Update(Feedback{AckedBytes: 1000, TxRate: r0 * 10})
	if r1 != 2*r0 {
		t.Fatalf("slow start should double: %v -> %v", r0, r1)
	}
	r2 := d.Update(Feedback{AckedBytes: 1000, TxRate: r1 * 10})
	if r2 != 2*r1 {
		t.Fatalf("slow start should keep doubling: %v -> %v", r1, r2)
	}
}

func TestRateDCTCPExitsSlowStartOnECN(t *testing.T) {
	d := NewRateDCTCP(cfg())
	d.Update(Feedback{AckedBytes: 1000, EcnBytes: 500, TxRate: 1e9})
	if d.InSlowStart() {
		t.Fatal("ECN must end slow start")
	}
}

func TestRateDCTCPAdditiveIncrease(t *testing.T) {
	c := cfg()
	d := NewRateDCTCP(c)
	d.Update(Feedback{AckedBytes: 1000, EcnBytes: 100, TxRate: 1e9}) // exit SS
	r0 := d.Rate()
	r1 := d.Update(Feedback{AckedBytes: 1000, TxRate: 1e9})
	if math.Abs(r1-(r0+c.Step)) > 1e-6 {
		t.Fatalf("AI: %v -> %v, want +%v", r0, r1, c.Step)
	}
}

func TestRateDCTCPMultiplicativeDecreaseProportionalToMarks(t *testing.T) {
	// Higher mark fractions must yield deeper cuts (DCTCP's control law).
	cut := func(frac float64) float64 {
		d := NewRateDCTCP(cfg())
		d.rate = 1e8
		d.slowStart = false
		// warm alpha with a few intervals at this fraction
		for i := 0; i < 50; i++ {
			d.rate = 1e8
			d.Update(Feedback{AckedBytes: 10000, EcnBytes: uint64(10000 * frac), TxRate: 1e9})
		}
		before := 1e8
		d.rate = before
		after := d.Update(Feedback{AckedBytes: 10000, EcnBytes: uint64(10000 * frac), TxRate: 1e9})
		return (before - after) / before
	}
	c10, c50, c100 := cut(0.1), cut(0.5), cut(1.0)
	if !(c10 < c50 && c50 < c100) {
		t.Fatalf("cuts not monotone in mark fraction: %v %v %v", c10, c50, c100)
	}
	// Fully-marked steady state cuts by ~alpha/2 = 1/2.
	if math.Abs(c100-0.5) > 0.05 {
		t.Fatalf("full marking cut = %v, want ~0.5", c100)
	}
}

func TestRateDCTCPSendRateCap(t *testing.T) {
	d := NewRateDCTCP(cfg())
	d.rate = 1e9
	d.slowStart = false
	// Application only actually sends at 1e6 B/s: allowance must collapse
	// to 1.2x that (then AI adds a step).
	d.Update(Feedback{AckedBytes: 1000, TxRate: 1e6})
	if d.Rate() > 1.2*1e6+cfg().Step+1 {
		t.Fatalf("rate %v not capped near 1.2x send rate", d.Rate())
	}
}

func TestRateDCTCPTimeoutCollapses(t *testing.T) {
	d := NewRateDCTCP(cfg())
	d.rate = 1e8
	d.Update(Feedback{Timeouts: 1, TxRate: 1e9})
	if d.Rate() != cfg().MinRate {
		t.Fatalf("timeout should collapse rate to floor, got %v", d.Rate())
	}
}

func TestRateDCTCPBounds(t *testing.T) {
	f := func(acked, ecn uint32, frex uint8, txr uint32) bool {
		d := NewRateDCTCP(cfg())
		for i := 0; i < 20; i++ {
			fb := Feedback{
				AckedBytes: uint64(acked),
				EcnBytes:   uint64(ecn),
				Frexmits:   uint32(frex),
				TxRate:     float64(txr),
			}
			if fb.EcnBytes > fb.AckedBytes {
				fb.EcnBytes = fb.AckedBytes
			}
			r := d.Update(fb)
			if r < cfg().MinRate || r > cfg().MaxRate || math.IsNaN(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRateDCTCPFairnessConvergence(t *testing.T) {
	// Two flows sharing a 1.25e9 B/s link with ECN marking above
	// capacity must converge to similar rates.
	link := 1.25e9
	a, b := NewRateDCTCP(cfg()), NewRateDCTCP(cfg())
	a.rate, b.rate = 1e9, 1e5 // grossly unfair start
	a.slowStart, b.slowStart = false, false
	for i := 0; i < 5000; i++ {
		total := a.Rate() + b.Rate()
		var markFrac float64
		if total > link {
			markFrac = (total - link) / total * 2
			if markFrac > 1 {
				markFrac = 1
			}
		}
		fbA := Feedback{AckedBytes: uint64(a.Rate() / 1000), EcnBytes: uint64(a.Rate() / 1000 * markFrac), TxRate: a.Rate()}
		fbB := Feedback{AckedBytes: uint64(b.Rate() / 1000), EcnBytes: uint64(b.Rate() / 1000 * markFrac), TxRate: b.Rate()}
		a.Update(fbA)
		b.Update(fbB)
	}
	ratio := a.Rate() / b.Rate()
	if ratio > 2 || ratio < 0.5 {
		t.Fatalf("flows did not converge to fairness: %v vs %v (ratio %v)", a.Rate(), b.Rate(), ratio)
	}
}

func TestTIMELYSlowStart(t *testing.T) {
	tm := NewTIMELY(cfg())
	r0 := tm.Rate()
	r1 := tm.Update(Feedback{AckedBytes: 1000, RTT: 25_000, TxRate: r0 * 10})
	if r1 != 2*r0 {
		t.Fatalf("TIMELY slow start should double: %v -> %v", r0, r1)
	}
}

func TestTIMELYDecreaseAboveTHigh(t *testing.T) {
	tm := NewTIMELY(cfg())
	tm.slowStart = false
	tm.rate = 1e8
	r := tm.Update(Feedback{AckedBytes: 1000, RTT: 2_000_000, TxRate: 1e9}) // 2ms >> THigh
	if r >= 1e8 {
		t.Fatalf("rate should decrease above THigh: %v", r)
	}
}

func TestTIMELYIncreaseBelowTLow(t *testing.T) {
	tm := NewTIMELY(cfg())
	tm.slowStart = false
	tm.rate = 1e8
	r := tm.Update(Feedback{AckedBytes: 1000, RTT: 10_000, TxRate: 1e9}) // 10us < TLow
	if r <= 1e8 {
		t.Fatalf("rate should increase below TLow: %v", r)
	}
}

func TestTIMELYGradientResponse(t *testing.T) {
	// Rising RTTs in the mid-band must decrease rate; falling RTTs
	// must increase it.
	tm := NewTIMELY(cfg())
	tm.slowStart = false
	tm.rate = 1e8
	tm.Update(Feedback{AckedBytes: 1000, RTT: 100_000, TxRate: 1e9})
	for i := 0; i < 5; i++ {
		tm.Update(Feedback{AckedBytes: 1000, RTT: int64(100_000 + i*40_000), TxRate: 1e9})
	}
	rising := tm.Rate()
	if rising >= 1e8 {
		t.Fatalf("rising RTT gradient should cut rate: %v", rising)
	}
	for i := 0; i < 10; i++ {
		tm.Update(Feedback{AckedBytes: 1000, RTT: int64(300_000 - i*20_000), TxRate: 1e9})
	}
	if tm.Rate() <= rising {
		t.Fatalf("falling RTT gradient should raise rate: %v -> %v", rising, tm.Rate())
	}
}

func TestTIMELYBounds(t *testing.T) {
	f := func(rtts []uint32) bool {
		tm := NewTIMELY(cfg())
		for _, r := range rtts {
			rate := tm.Update(Feedback{AckedBytes: 1000, RTT: int64(r % 10_000_000), TxRate: 1e12})
			if rate < cfg().MinRate || rate > cfg().MaxRate || math.IsNaN(rate) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewRenoSlowStartAndAI(t *testing.T) {
	n := NewNewReno(1000, 1<<20)
	if n.Window() != 10000 {
		t.Fatalf("IW = %d, want 10 MSS", n.Window())
	}
	if !n.InSlowStart() {
		t.Fatal("should start in slow start")
	}
	n.OnAck(10000, false)
	if n.Window() != 20000 {
		t.Fatalf("slow start growth: %d", n.Window())
	}
	// Force CA.
	n.ssthresh = 15000
	w0 := n.Window()
	n.OnAck(w0, false) // one full window acked: +~1 MSS
	if n.Window()-w0 > 1100 || n.Window()-w0 < 900 {
		t.Fatalf("CA growth = %d, want ~1 MSS", n.Window()-w0)
	}
}

func TestNewRenoFastRetransmit(t *testing.T) {
	n := NewNewReno(1000, 1<<20)
	n.cwnd = 100000
	n.ssthresh = 50 // CA
	if n.OnDupAck() || n.OnDupAck() {
		t.Fatal("first two dupacks must not trigger")
	}
	if !n.OnDupAck() {
		t.Fatal("third dupack must trigger fast retransmit")
	}
	if n.Window() != 50000 {
		t.Fatalf("window after FR = %d, want half", n.Window())
	}
	if n.OnDupAck() {
		t.Fatal("further dupacks must not re-trigger")
	}
	n.OnAck(1000, false)
	if n.dupAcks != 0 {
		t.Fatal("new ack must reset dupack count")
	}
}

func TestNewRenoTimeout(t *testing.T) {
	n := NewNewReno(1000, 1<<20)
	n.cwnd = 100000
	n.OnRetransmitTimeout()
	if n.Window() != 1000 {
		t.Fatalf("window after RTO = %d, want 1 MSS", n.Window())
	}
	if n.ssthresh != 50000 {
		t.Fatalf("ssthresh = %v, want half prior cwnd", n.ssthresh)
	}
}

func TestNewRenoWindowFloor(t *testing.T) {
	n := NewNewReno(1000, 1<<20)
	n.cwnd = 1000
	n.OnDupAck()
	n.OnDupAck()
	n.OnDupAck()
	if n.Window() < 2000 {
		t.Fatalf("window floor = %d, want >= 2 MSS", n.Window())
	}
}

func TestWindowDCTCPCutsProportionally(t *testing.T) {
	d := NewWindowDCTCP(1000, 1<<20)
	d.cwnd = 100000
	d.ssthresh = 50 // CA mode
	// Ack two full windows with all bytes marked: alpha stays 1, cut 1/2.
	for i := 0; i < 2; i++ {
		w := d.Window()
		acked := 0
		for acked < w {
			d.OnAck(1000, true)
			acked += 1000
		}
	}
	if d.Window() > 60000 {
		t.Fatalf("fully marked traffic should halve window, got %d", d.Window())
	}
	if a := d.Alpha(); a < 0.9 {
		t.Fatalf("alpha = %v, want ~1 under full marking", a)
	}
}

func TestWindowDCTCPUnmarkedBehavesLikeReno(t *testing.T) {
	d := NewWindowDCTCP(1000, 1<<20)
	n := NewNewReno(1000, 1<<20)
	for i := 0; i < 50; i++ {
		d.OnAck(5000, false)
		n.OnAck(5000, false)
	}
	// Alpha decays toward zero without marks once windows complete.
	if d.Window() < n.Window()/2 {
		t.Fatalf("unmarked DCTCP window %d too far below NewReno %d", d.Window(), n.Window())
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(10e9)
	if c.MaxRate != 10e9/8 {
		t.Fatalf("MaxRate = %v", c.MaxRate)
	}
	if c.Step != 10e6/8 {
		t.Fatalf("Step = %v", c.Step)
	}
	d := NewRateDCTCP(Config{}) // zero config must be filled
	if d.Rate() <= 0 {
		t.Fatal("zero config should yield positive rate")
	}
}
