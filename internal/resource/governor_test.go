package resource

import (
	"errors"
	"sync"
	"testing"
)

func TestAcquireReleaseAccounting(t *testing.T) {
	g := New(Limits{Flows: 4, PayloadBytes: 1 << 20})
	for i := 0; i < 4; i++ {
		if err := g.Acquire(PoolFlows, 1); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if err := g.Acquire(PoolFlows, 1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted past cap, got %v", err)
	}
	if got := g.Used(PoolFlows); got != 4 {
		t.Fatalf("denied acquire must not reserve: used=%d", got)
	}
	g.Release(PoolFlows, 4)
	if got := g.Used(PoolFlows); got != 0 {
		t.Fatalf("after release used=%d, want 0", got)
	}
	if got := g.Peak(PoolFlows); got != 4 {
		t.Fatalf("peak=%d, want 4", got)
	}
	if got := g.Snapshot().Rejects[PoolFlows]; got != 1 {
		t.Fatalf("rejects=%d, want 1", got)
	}
}

// TestUnderflowIsCountedNotSilent: an un-charge that arrives before its
// charge (or a double release) still clamps at zero, but shows up as a
// per-pool count, and the late charge is then visible as a leak.
func TestUnderflowIsCountedNotSilent(t *testing.T) {
	g := New(Limits{})
	g.Charge(PoolAccept, -1)
	g.Charge(PoolAccept, 1)
	g.Release(PoolTimers, 1)
	st := g.Snapshot()
	if st.Underflows[PoolAccept] != 1 || st.Underflows[PoolTimers] != 1 || st.Underflows[PoolFlows] != 0 {
		t.Fatalf("underflows = %v, want accept=1 timers=1 others=0", st.Underflows)
	}
	if st.Used[PoolAccept] != 1 || st.Used[PoolTimers] != 0 {
		t.Fatalf("used accept=%d timers=%d, want 1 and 0", st.Used[PoolAccept], st.Used[PoolTimers])
	}
}

func TestUncappedPoolNeverDenies(t *testing.T) {
	g := New(Limits{})
	for i := 0; i < 1000; i++ {
		if err := g.Acquire(PoolHalfOpen, 1); err != nil {
			t.Fatalf("uncapped pool denied: %v", err)
		}
	}
	if p := g.Pressure(); p != 0 {
		t.Fatalf("uncapped pools must not contribute pressure, got %v", p)
	}
}

func TestPerAppQuota(t *testing.T) {
	g := New(Limits{Flows: 100, AppFlows: 2, PayloadBytes: 1 << 20, AppPayloadBytes: 1 << 16})
	if err := g.AcquireFlow(1, 1<<10); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquireFlow(1, 1<<10); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquireFlow(1, 1<<10); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want quota denial for app 1, got %v", err)
	}
	// A different app is unaffected by app 1's quota.
	if err := g.AcquireFlow(2, 1<<10); err != nil {
		t.Fatalf("app 2 should be admitted: %v", err)
	}
	if f, _ := g.AppUsage(1); f != 2 {
		t.Fatalf("app 1 flows=%d, want 2", f)
	}
	g.ReleaseFlow(1, 1<<10)
	if err := g.AcquireFlow(1, 1<<10); err != nil {
		t.Fatalf("after release app 1 should fit again: %v", err)
	}
	if got := g.Snapshot().QuotaRejects; got != 1 {
		t.Fatalf("quota rejects=%d, want 1", got)
	}
	// Payload quota denial leaves nothing reserved.
	if err := g.AcquireFlow(3, 1<<17); !errors.Is(err, ErrExhausted) {
		t.Fatal("payload quota should deny")
	}
	if f, p := g.AppUsage(3); f != 0 || p != 0 {
		t.Fatalf("denied acquire leaked app usage: flows=%d payload=%d", f, p)
	}
}

func TestAcquireFlowDenialLeavesGlobalsUntouched(t *testing.T) {
	g := New(Limits{Flows: 1, PayloadBytes: 1 << 20})
	if err := g.AcquireFlow(1, 512); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquireFlow(2, 512); !errors.Is(err, ErrExhausted) {
		t.Fatal("want global flow-pool denial")
	}
	if got := g.Used(PoolPayload); got != 512 {
		t.Fatalf("denied AcquireFlow leaked payload: used=%d want 512", got)
	}
	g.ReleaseFlow(1, 512)
	if got := g.Used(PoolPayload); got != 0 {
		t.Fatalf("payload not returned: used=%d", got)
	}
	if got := g.Used(PoolFlows); got != 0 {
		t.Fatalf("flows not returned: used=%d", got)
	}
}

func TestLadderEngagesAndReleasesInOrder(t *testing.T) {
	g := New(Limits{PayloadBytes: 100, EngagePct: 60, ReleasePct: 50})
	var transitions [][2]int
	g.OnTransition(func(from, to int) { transitions = append(transitions, [2]int{from, to}) })

	// Rung engage points: 60, 70, 80, 90 (spread to 100); release gap 10.
	fill := func(n int64) {
		g.Release(PoolPayload, g.Used(PoolPayload))
		if n > 0 {
			if err := g.Acquire(PoolPayload, n); err != nil {
				t.Fatalf("fill %d: %v", n, err)
			}
		}
	}
	settle := func() int {
		for {
			l, changed := g.Evaluate()
			if !changed {
				return l
			}
		}
	}

	fill(95) // above every engage point: must climb 0→1→2→3→4 one rung per tick
	if l, _ := g.Evaluate(); l != 1 {
		t.Fatalf("first tick level=%d, want 1 (one rung at a time)", l)
	}
	if l := settle(); l != 4 {
		t.Fatalf("settled level=%d, want 4", l)
	}
	fill(85) // below rung 4 release (90-10=80)? 85 >= 80, so rung 4 holds (hysteresis)
	if l := settle(); l != 4 {
		t.Fatalf("hysteresis: level=%d, want 4 at 85%%", l)
	}
	fill(75) // below rung 4 release (80) but above rung 3's (70): drop to 3 only
	if l := settle(); l != 3 {
		t.Fatalf("level=%d, want 3 at 75%%", l)
	}
	fill(0)
	if l := settle(); l != 0 {
		t.Fatalf("level=%d, want 0 when idle", l)
	}

	want := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 3}, {3, 2}, {2, 1}, {1, 0}}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v (strict order)", i, transitions[i], want[i])
		}
	}
	if g.PeakLevel() != 4 {
		t.Fatalf("peak level=%d, want 4", g.PeakLevel())
	}
	s := g.Snapshot()
	for k := 1; k <= 4; k++ {
		if s.Engaged[k] != 1 {
			t.Fatalf("rung %d engaged %d times, want 1", k, s.Engaged[k])
		}
	}
}

func TestValidateRejectsInconsistentLimits(t *testing.T) {
	cases := []struct {
		name string
		l    Limits
	}{
		{"inverted hysteresis", Limits{EngagePct: 50, ReleasePct: 60}},
		{"equal watermarks", Limits{EngagePct: 50, ReleasePct: 50}},
		{"engage over 100", Limits{EngagePct: 150, ReleasePct: 50}},
		{"quota over pool", Limits{Flows: 10, AppFlows: 20}},
		{"payload quota over pool", Limits{PayloadBytes: 1 << 20, AppPayloadBytes: 1 << 21}},
		{"negative cap", Limits{Flows: -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.l.Validate(); err == nil {
				t.Fatalf("Validate(%+v) accepted inconsistent limits", c.l)
			}
		})
	}
	// And the happy path.
	ok := Limits{Flows: 100, AppFlows: 10, PayloadBytes: 1 << 20, AppPayloadBytes: 1 << 18}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid limits rejected: %v", err)
	}
	if err := (Limits{}).Validate(); err != nil {
		t.Fatalf("zero limits rejected: %v", err)
	}
}

func TestTxGrantPublication(t *testing.T) {
	g := New(Limits{})
	if g.TxGrant() != 0 {
		t.Fatal("grant should start unclamped")
	}
	g.SetTxGrant(4096)
	if got := g.TxGrant(); got != 4096 {
		t.Fatalf("grant=%d, want 4096", got)
	}
	g.SetTxGrant(0)
	if g.TxGrant() != 0 {
		t.Fatal("grant should unclamp")
	}
}

func TestConcurrentAccountingBalances(t *testing.T) {
	g := New(Limits{Flows: 1 << 30, PayloadBytes: 1 << 40})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := g.AcquireFlow(id, 4096); err != nil {
					t.Error(err)
					return
				}
				g.ReleaseFlow(id, 4096)
			}
		}(uint32(w))
	}
	wg.Wait()
	if got := g.Used(PoolFlows); got != 0 {
		t.Fatalf("flows leaked: %d", got)
	}
	if got := g.Used(PoolPayload); got != 0 {
		t.Fatalf("payload leaked: %d", got)
	}
	for w := 0; w < 8; w++ {
		if f, p := g.AppUsage(uint32(w)); f != 0 || p != 0 {
			t.Fatalf("app %d leaked: flows=%d payload=%d", w, f, p)
		}
	}
}

func TestShedCounters(t *testing.T) {
	g := New(Limits{})
	g.NoteShed(LevelCookies)
	g.NoteShed(LevelShedSyn)
	g.NoteShed(LevelShedSyn)
	s := g.Snapshot()
	if s.Shed[LevelCookies] != 1 || s.Shed[LevelShedSyn] != 2 {
		t.Fatalf("shed counters %v", s.Shed)
	}
}

func TestPoolAndLevelNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Pool(0); p < NumPools; p++ {
		n := p.String()
		if n == "" || seen[n] {
			t.Fatalf("pool %d name %q empty or duplicate", p, n)
		}
		seen[n] = true
	}
	for k := 0; k < NumLevels; k++ {
		if LevelName(k) == "" {
			t.Fatalf("level %d has no name", k)
		}
	}
}
