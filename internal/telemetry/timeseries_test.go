package telemetry

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func tsFixture() (*Registry, *atomic.Uint64) {
	r := NewRegistry()
	c := testCounter(r, "tas_ts_ops_total", "Ops.", L("core", "0"))
	r.GaugeFunc("tas_ts_depth", "Depth.", func() float64 { return 5 })
	return r, c
}

func TestTimeSeriesSnapAndValues(t *testing.T) {
	r, c := tsFixture()
	ts := NewTimeSeries(r, time.Hour, 10) // manual Snap only
	c.Add(1)
	ts.Snap()
	c.Add(2)
	ts.Snap()
	d := ts.Dump()
	if len(d.AtMS) != 2 {
		t.Fatalf("points = %d, want 2", len(d.AtMS))
	}
	vals := d.Values("tas_ts_ops_total", map[string]string{"core": "0"})
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("counter trajectory = %v, want [1 3]", vals)
	}
	if max, ok := d.Max("tas_ts_depth", nil); !ok || max != 5 {
		t.Fatalf("gauge max = %v ok=%v, want 5 true", max, ok)
	}
	if _, ok := d.Max("tas_nope", nil); ok {
		t.Fatal("Max found a series that does not exist")
	}
	if at := d.AtMS; at[1] < at[0] {
		t.Fatalf("snapshot offsets not monotone: %v", at)
	}
}

func TestTimeSeriesEvictsOverCapacity(t *testing.T) {
	r, c := tsFixture()
	ts := NewTimeSeries(r, time.Hour, 3)
	for i := 0; i < 10; i++ {
		c.Add(1)
		ts.Snap()
	}
	d := ts.Dump()
	if len(d.AtMS) != 3 {
		t.Fatalf("points = %d, want capacity 3", len(d.AtMS))
	}
	if d.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", d.Dropped)
	}
	vals := d.Values("tas_ts_ops_total", map[string]string{"core": "0"})
	if len(vals) != 3 || vals[2] != 10 {
		t.Fatalf("kept values = %v, want last three ending in 10", vals)
	}
}

func TestTimeSeriesColumnChangeResets(t *testing.T) {
	r, c := tsFixture()
	ts := NewTimeSeries(r, time.Hour, 10)
	c.Add(1)
	ts.Snap()
	// Registering a new series changes the column set: the ring resets
	// rather than misaligning old rows against new columns.
	r.GaugeFunc("tas_ts_new", "Late registration.", func() float64 { return 1 })
	ts.Snap()
	d := ts.Dump()
	if len(d.AtMS) != 1 {
		t.Fatalf("points after column change = %d, want 1 (reset)", len(d.AtMS))
	}
	if _, ok := d.Max("tas_ts_new", nil); !ok {
		t.Fatal("new column missing after reset")
	}
}

func TestTimeSeriesStartStop(t *testing.T) {
	r, _ := tsFixture()
	ts := NewTimeSeries(r, time.Millisecond, 1000)
	ts.Start()
	deadline := time.After(2 * time.Second)
	for ts.Points() < 3 {
		select {
		case <-deadline:
			t.Fatalf("ticker produced only %d points in 2s", ts.Points())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	ts.Stop()
	n := ts.Points()
	time.Sleep(10 * time.Millisecond)
	if got := ts.Points(); got != n {
		t.Fatalf("points advanced after Stop: %d -> %d", n, got)
	}
	ts.Stop() // idempotent
}

func TestTimeSeriesJSONShape(t *testing.T) {
	r, c := tsFixture()
	ts := NewTimeSeries(r, time.Hour, 10)
	c.Add(4)
	ts.Snap()
	var b strings.Builder
	if err := ts.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var d SeriesDump
	if err := json.Unmarshal([]byte(b.String()), &d); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, b.String())
	}
	if d.IntervalMS != float64(time.Hour.Milliseconds()) {
		t.Fatalf("interval_ms = %v", d.IntervalMS)
	}
	if len(d.Series) != 2 {
		t.Fatalf("series count = %d, want 2", len(d.Series))
	}
	for _, s := range d.Series {
		if len(s.Values) != 1 {
			t.Fatalf("series %s has %d values, want 1", s.Name, len(s.Values))
		}
		if s.Kind == "" {
			t.Fatalf("series %s missing kind", s.Name)
		}
	}
}
