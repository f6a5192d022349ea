package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal time must run FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New(1)
	var times []Time
	e.At(10, func() {
		times = append(times, e.Now())
		e.After(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineSchedulePastClamps(t *testing.T) {
	e := New(1)
	fired := Time(-1)
	e.At(100, func() {
		e.At(50, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := New(1)
	ran := false
	e.After(-5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay should run at now")
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	ran := false
	tm := e.At(10, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report not pending")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 5,10", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %d, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100 (advance past last event)", e.Now())
	}
}

func TestRunUntilHonorsNewEvents(t *testing.T) {
	e := New(1)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		e.After(10, reschedule)
	}
	e.After(10, reschedule)
	e.RunUntil(100)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestEvery(t *testing.T) {
	e := New(1)
	var ticks []Time
	var tm *Timer
	tm = e.Every(10, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 5 {
			tm.Stop()
		}
	})
	e.RunUntil(1000)
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, tk := range ticks {
		if tk != Time((i+1)*10) {
			t.Fatalf("tick %d at %d, want %d", i, tk, (i+1)*10)
		}
	}
}

func TestEveryInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := New(42)
		var out []int64
		var step func()
		step = func() {
			out = append(out, int64(e.Now())*1000+e.Rand().Int63n(1000))
			if len(out) < 100 {
				e.After(Time(1+e.Rand().Int63n(50)), step)
			}
		}
		e.After(1, step)
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestClockNeverGoesBackward(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		prev := Time(0)
		ok := true
		for _, d := range delays {
			d := Time(d)
			e.After(d, func() {
				if e.Now() < prev {
					ok = false
				}
				prev = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
