package cpumodel

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestCoreSerializesWork(t *testing.T) {
	eng := sim.New(1)
	c := NewCore(eng, 2.0) // 2 cycles/ns
	var done []sim.Time
	c.Exec(2000, func() { done = append(done, eng.Now()) }) // 1000ns
	c.Exec(2000, func() { done = append(done, eng.Now()) }) // queued behind
	eng.Run()
	if len(done) != 2 || done[0] != 1000 || done[1] != 2000 {
		t.Fatalf("completions = %v", done)
	}
	if c.TotalCycles != 4000 || c.TotalItems != 2 {
		t.Fatalf("accounting: %v cycles, %d items", c.TotalCycles, c.TotalItems)
	}
}

func TestCoreIdleGap(t *testing.T) {
	eng := sim.New(1)
	c := NewCore(eng, 1.0)
	c.Exec(100, nil)
	eng.At(500, func() {
		c.Exec(100, func() {
			if eng.Now() != 600 {
				t.Errorf("work after idle should start immediately: done at %d", eng.Now())
			}
		})
	})
	eng.Run()
}

func TestCoreQueueDelay(t *testing.T) {
	eng := sim.New(1)
	c := NewCore(eng, 1.0)
	if c.QueueDelay() != 0 {
		t.Fatal("idle core has zero delay")
	}
	c.Exec(1000, nil)
	if c.QueueDelay() != 1000 {
		t.Fatalf("delay = %d", c.QueueDelay())
	}
}

func TestCoreUtilization(t *testing.T) {
	eng := sim.New(1)
	c := NewCore(eng, 1.0)
	c.Exec(500, nil)
	eng.RunUntil(1000)
	u := c.Utilization()
	if math.Abs(u-0.5) > 0.01 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	// Window reset: idle from here.
	eng.RunUntil(2000)
	if u := c.Utilization(); u != 0 {
		t.Fatalf("second window utilization = %v, want 0", u)
	}
}

func TestCoreBlockedWakeupPenalty(t *testing.T) {
	eng := sim.New(1)
	c := NewCore(eng, 1.0)
	c.Blocked = true
	c.WakeupCycles = 100
	end := c.Exec(50, nil)
	if end != 150 {
		t.Fatalf("blocked core should add wakeup cycles: end=%d", end)
	}
	if c.Blocked {
		t.Fatal("core should unblock on work")
	}
	if end := c.Exec(50, nil); end != 200 {
		t.Fatalf("second exec should not pay wakeup: end=%d", end)
	}
}

func TestPoolHelpers(t *testing.T) {
	eng := sim.New(1)
	p := NewPool(eng, 4, 1.0)
	if len(p.Cores) != 4 {
		t.Fatal("pool size")
	}
	if p.ByHash(5, 2) != p.Cores[1] {
		t.Fatal("ByHash restriction wrong")
	}
	p.Cores[0].Exec(1000, nil)
	p.Cores[0].Exec(0, nil)
	if got := p.Utilization(4); got < 0 || got > 1 {
		t.Fatalf("utilization %v", got)
	}
}

func TestCostsMatchTable1(t *testing.T) {
	// Totals from Table 1: Linux 16.75kc, IX 2.73kc, TAS 2.57kc.
	if got := CostsFor(StackLinux).TotalCycles(); got != 16750 {
		t.Fatalf("Linux total = %v", got)
	}
	if got := CostsFor(StackIX).TotalCycles(); got != 2740 {
		t.Fatalf("IX total = %v", got)
	}
	if got := CostsFor(StackTAS).TotalCycles(); got != 2570 {
		t.Fatalf("TAS total = %v", got)
	}
	// TAS LL cheaper than TAS SO; mTCP between IX and Linux.
	if CostsFor(StackTASLL).TotalCycles() >= CostsFor(StackTAS).TotalCycles() {
		t.Fatal("TAS LL should be cheaper than TAS SO")
	}
	m := CostsFor(StackMTCP).TotalCycles()
	if m <= CostsFor(StackIX).TotalCycles() || m >= CostsFor(StackLinux).TotalCycles() {
		t.Fatalf("mTCP total %v should sit between IX and Linux", m)
	}
}

func TestCPIOrdering(t *testing.T) {
	// Paper: Linux CPI 1.32, IX 0.82, TAS 0.66.
	lin := CostsFor(StackLinux)
	ix := CostsFor(StackIX)
	tas := CostsFor(StackTAS)
	cpiL := CPI(lin.TotalCycles(), lin.Instructions)
	cpiI := CPI(ix.TotalCycles(), ix.Instructions)
	cpiT := CPI(tas.TotalCycles(), tas.Instructions)
	if !(cpiT < cpiI && cpiI < cpiL) {
		t.Fatalf("CPI ordering: TAS %.2f IX %.2f Linux %.2f", cpiT, cpiI, cpiL)
	}
	if math.Abs(cpiL-1.32) > 0.02 || math.Abs(cpiI-0.83) > 0.02 || math.Abs(cpiT-0.66) > 0.02 {
		t.Fatalf("CPI values off: %v %v %v", cpiL, cpiI, cpiT)
	}
}

func TestCacheModelCliff(t *testing.T) {
	m := DefaultCache(20)
	tas := CostsFor(StackTAS)
	ix := CostsFor(StackIX)
	// At the calibration point there is no extra cost.
	if e := m.ExtraCycles(tas, 32768); e != 0 {
		t.Fatalf("TAS extra at calibration = %v", e)
	}
	// At 96K conns, IX pays much more than TAS (Fig 4's divergence).
	tasHi := m.ExtraCycles(tas, 96<<10)
	ixHi := m.ExtraCycles(ix, 96<<10)
	if tasHi < 0 || ixHi <= tasHi*3 {
		t.Fatalf("cache penalties: TAS %v, IX %v — IX should be far worse", tasHi, ixHi)
	}
	// Relative degradation: IX at 96K should lose a large fraction of
	// its base budget; TAS only a small one.
	if frac := tasHi / tas.TotalCycles(); frac > 0.15 {
		t.Fatalf("TAS degradation %v too high", frac)
	}
	if frac := ixHi / ix.TotalCycles(); frac < 0.3 {
		t.Fatalf("IX degradation %v too low", frac)
	}
}

func TestCacheModelMonotone(t *testing.T) {
	m := DefaultCache(20)
	c := CostsFor(StackLinux)
	prev := math.Inf(-1)
	for conns := 1024; conns <= 128<<10; conns *= 2 {
		e := m.ExtraCycles(c, conns)
		if e < prev {
			t.Fatalf("penalty must be nondecreasing in conns: %v after %v", e, prev)
		}
		prev = e
	}
}

func TestLockExtraCycles(t *testing.T) {
	lin := CostsFor(StackLinux)
	if LockExtraCycles(lin, 8) != 0 {
		t.Fatal("penalty at the calibration point must be zero")
	}
	if LockExtraCycles(lin, 16) != 400*8 {
		t.Fatalf("lock penalty = %v", LockExtraCycles(lin, 16))
	}
	if LockExtraCycles(lin, 1) >= 0 {
		t.Fatal("fewer cores than calibration should credit")
	}
	ix := CostsFor(StackIX)
	if LockExtraCycles(ix, 8) != 0 || LockExtraCycles(ix, 16) != 0 {
		t.Fatal("IX is per-core isolated: no lock penalty")
	}
}

func TestPerRequestBreakdown(t *testing.T) {
	app, stack := PerRequestBreakdown(StackTAS, 680, 1890)
	if math.Abs(app.Total()-680) > 1e-6 {
		t.Fatalf("app breakdown total %v", app.Total())
	}
	if math.Abs(stack.Total()-1890) > 1e-6 {
		t.Fatalf("stack breakdown total %v", stack.Total())
	}
	// TAS retires the plurality of its stack cycles (streamlined code).
	if stack.Retiring < stack.Frontend || stack.Retiring < stack.BadSpec {
		t.Fatal("TAS stack should be retiring-dominated vs frontend/badspec")
	}
	// Linux is backend-bound.
	_, linStack := PerRequestBreakdown(StackLinux, 1070, 15680)
	if linStack.Backend <= linStack.Retiring {
		t.Fatal("Linux stack should be backend-bound")
	}
}

func TestBreakdownOps(t *testing.T) {
	b := Breakdown{1, 2, 3, 4}
	if b.Total() != 10 {
		t.Fatal("total")
	}
	if s := b.Scale(2); s.Backend != 6 {
		t.Fatal("scale")
	}
}

func TestStackKindString(t *testing.T) {
	for k, want := range map[StackKind]string{
		StackLinux: "Linux", StackIX: "IX", StackMTCP: "mTCP", StackTAS: "TAS", StackTASLL: "TAS LL",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
