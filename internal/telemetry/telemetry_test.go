package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testCounter registers a counter series over an atomic the test bumps,
// the way product counters are exported.
func testCounter(r *Registry, name, help string, labels ...Label) *atomic.Uint64 {
	v := new(atomic.Uint64)
	r.CounterFunc(name, help, func() float64 { return float64(v.Load()) }, labels...)
	return v
}

func TestRegistryTextExposition(t *testing.T) {
	r := NewRegistry()
	testCounter(r, "tas_rx_packets_total", "Packets received.", L("core", "0")).Add(42)
	testCounter(r, "tas_rx_packets_total", "Packets received.", L("core", "1")).Add(7)
	r.GaugeFunc("tas_flows", "Live flows.", func() float64 { return 3 })

	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP tas_rx_packets_total Packets received.",
		"# TYPE tas_rx_packets_total counter",
		`tas_rx_packets_total{core="0"} 42`,
		`tas_rx_packets_total{core="1"} 7`,
		"# TYPE tas_flows gauge",
		"tas_flows 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// HELP/TYPE headers must appear once per metric name, not per series.
	if n := strings.Count(out, "# TYPE tas_rx_packets_total"); n != 1 {
		t.Errorf("TYPE header appears %d times, want 1", n)
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	testCounter(r, "a_total", "A.").Add(9)
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	if err := json.Unmarshal(b.Bytes(), &samples); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(samples) != 1 || samples[0].Name != "a_total" || samples[0].Value != 9 {
		t.Fatalf("unexpected samples: %+v", samples)
	}
}

func TestFlowRingWrapAround(t *testing.T) {
	clock := int64(0)
	r := NewFlowRing("k", 4, func() int64 { clock++; return clock })
	for i := 0; i < 10; i++ {
		r.Record(FESegTx, uint32(i), 0, 100, 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint32(6 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest-first after wrap)", i, ev.Seq, want)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Errorf("Total/Dropped = %d/%d, want 10/6", r.Total(), r.Dropped())
	}
}

func TestRecorderLifecycle(t *testing.T) {
	rc := NewRecorder(8, 2, func() int64 { return 0 })
	a := rc.Ring("a")
	if rc.Ring("a") != a {
		t.Fatal("Ring should return the same live ring for a key")
	}
	a.Record(FEEstablished, 0, 0, 0, 0)
	rc.Ring("b")
	rc.Ring("c")

	if got := rc.LiveKeys(); len(got) != 3 {
		t.Fatalf("LiveKeys = %v, want 3 keys", got)
	}
	rc.Retire("a")
	rc.Retire("b")
	rc.Retire("c") // retiredMax=2: "a" evicted
	if rc.Lookup("a") != nil {
		t.Error("ring a should have been evicted from the retired list")
	}
	if r := rc.Lookup("b"); r == nil {
		t.Error("ring b should still be retired")
	}
	if got := rc.RetiredKeys(); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("RetiredKeys = %v, want [b c]", got)
	}
	rc.Retire("nope") // unknown key must be a no-op
}

func TestRecorderConcurrentWriters(t *testing.T) {
	tm := New(Config{Enabled: true, FlightRingSize: 16}, 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ring := tm.Recorder.Ring("shared")
			for i := 0; i < 1000; i++ {
				ring.Record(FESegRx, uint32(i), 0, 0, 0)
			}
		}()
	}
	wg.Wait()
	if got := tm.Recorder.Ring("shared").Total(); got != 4000 {
		t.Fatalf("Total = %d, want 4000", got)
	}
}

func TestCycleStats(t *testing.T) {
	c := NewCycleStats(2)
	c.AddFast(0, ModRx, 1000, 10)
	c.AddFast(1, ModRx, 500, 5)
	c.AddFast(99, ModTx, 100, 1) // out-of-range core clamps to 0
	c.AddSlow(ModCC, 2000, 3)
	c.AddApp(ModAppCopy, 300, 2)

	if got := c.Total(ModRx); got.Nanos != 1500 || got.Items != 15 {
		t.Errorf("Total(rx) = %+v", got)
	}
	if got := c.Get(0, ModTx); got.Nanos != 100 {
		t.Errorf("clamped AddFast lost: %+v", got)
	}
	if got := c.Get(2, ModCC); got.Nanos != 2000 {
		t.Errorf("slow row = %+v", got)
	}
	if got := c.Get(3, ModAppCopy); got.Items != 2 {
		t.Errorf("app row = %+v", got)
	}
	if c.RowName(0) != "core0" || c.RowName(2) != "slow" || c.RowName(3) != "app" {
		t.Errorf("row names: %s %s %s", c.RowName(0), c.RowName(2), c.RowName(3))
	}

	var b bytes.Buffer
	if err := c.WriteBreakdown(&b, 2.1, 15); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"rx", "cc", "app-copy", "cycles/pkt"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "timer") {
		t.Errorf("breakdown should skip empty modules:\n%s", out)
	}
}

func TestCycleStatsRegister(t *testing.T) {
	c := NewCycleStats(1)
	c.AddFast(0, ModRx, 100, 1)
	r := NewRegistry()
	c.Register(r)
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `tas_cycles_nanos_total{core="core0",module="rx"} 100`) {
		t.Errorf("registry missing cycle series:\n%s", b.String())
	}
}

func TestHTTPHandler(t *testing.T) {
	tm := New(Config{Enabled: true}, 1)
	testCounter(tm.Registry, "tas_test_total", "Test.").Add(1)
	ring := tm.Recorder.Ring("1.2.3.4:5->6.7.8.9:10")
	ring.Record(FESynTx, 1, 0, 0, 0)
	ring.Record(FEEstablished, 1, 1, 0, 0)

	srv := httptest.NewServer(tm.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "tas_test_total 1") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"tas_test_total"`) {
		t.Errorf("/metrics.json: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/flows"); code != 200 || !strings.Contains(body, `"syn-tx"`) {
		t.Errorf("/debug/flows: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/flows?flow=1.2.3.4:5-%3E6.7.8.9:10"); code != 200 ||
		!strings.Contains(body, "established") {
		t.Errorf("/debug/flows?flow=: code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/flows?flow=unknown"); code != 404 {
		t.Errorf("unknown flow should 404, got %d", code)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := FESynTx; k <= FEAppRecv; k++ {
		if strings.HasPrefix(k.String(), "event(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}
