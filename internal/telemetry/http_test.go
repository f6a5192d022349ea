package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
)

// goldenTelemetry builds a fully deterministic fixture: a hand-rolled
// registry, a flight recorder on a fake clock, and one flow ring with a
// fixed lifecycle. Every byte of the HTTP surface is then comparable
// against golden strings.
func goldenTelemetry() *Telemetry {
	t := &Telemetry{Registry: NewRegistry()}
	var clk int64
	t.Recorder = NewRecorder(8, 4, func() int64 { clk += 1_500_000; return clk })

	testCounter(t.Registry, "tas_test_packets_total", "Packets processed.", L("core", "0")).Add(42)
	testCounter(t.Registry, "tas_test_packets_total", "Packets processed.", L("core", "1")).Add(7)
	t.Registry.GaugeFunc("tas_test_depth", "Ring occupancy.",
		func() float64 { return 3 }, L("ring", "rx"), L("core", "0"))

	r := t.Recorder.Ring("10.0.0.2:9000->10.0.0.1:8080")
	r.Record(FESynTx, 1000, 0, 0, 0)
	r.Record(FEEstablished, 1001, 501, 0, 0)
	r.Record(FESegTx, 1001, 501, 64, 0)
	return t
}

func get(t *testing.T, telem *Telemetry, path string) (int, string) {
	t.Helper()
	srv := httptest.NewServer(telem.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestGoldenMetricsText(t *testing.T) {
	code, body := get(t, goldenTelemetry(), "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	want := `# HELP tas_test_depth Ring occupancy.
# TYPE tas_test_depth gauge
tas_test_depth{ring="rx",core="0"} 3
# HELP tas_test_packets_total Packets processed.
# TYPE tas_test_packets_total counter
tas_test_packets_total{core="0"} 42
tas_test_packets_total{core="1"} 7
`
	if body != want {
		t.Errorf("/metrics golden mismatch:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

func TestGoldenMetricsJSON(t *testing.T) {
	code, body := get(t, goldenTelemetry(), "/metrics.json")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	want := `[
  {
    "name": "tas_test_depth",
    "kind": "gauge",
    "labels": {
      "core": "0",
      "ring": "rx"
    },
    "value": 3
  },
  {
    "name": "tas_test_packets_total",
    "kind": "counter",
    "labels": {
      "core": "0"
    },
    "value": 42
  },
  {
    "name": "tas_test_packets_total",
    "kind": "counter",
    "labels": {
      "core": "1"
    },
    "value": 7
  }
]
`
	if body != want {
		t.Errorf("/metrics.json golden mismatch:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

func TestGoldenDebugFlows(t *testing.T) {
	code, body := get(t, goldenTelemetry(), "/debug/flows")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	want := `[
  {
    "key": "10.0.0.2:9000->10.0.0.1:8080",
    "total_events": 3,
    "dropped_events": 0,
    "events": [
      {
        "ts_ns": 1500000,
        "kind": "syn-tx",
        "seq": 1000,
        "ack": 0
      },
      {
        "ts_ns": 3000000,
        "kind": "established",
        "seq": 1001,
        "ack": 501
      },
      {
        "ts_ns": 4500000,
        "kind": "seg-tx",
        "seq": 1001,
        "ack": 501,
        "bytes": 64
      }
    ]
  }
]
`
	if body != want {
		t.Errorf("/debug/flows golden mismatch:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

func TestGoldenDebugFlowText(t *testing.T) {
	code, body := get(t, goldenTelemetry(), "/debug/flows?flow=10.0.0.2:9000->10.0.0.1:8080")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	want := `flow 10.0.0.2:9000->10.0.0.1:8080 (3 events, 0 overwritten)
       1.500ms  syn-tx       seq=1000       ack=0          bytes=0      aux=0
       3.000ms  established  seq=1001       ack=501        bytes=0      aux=0
       4.500ms  seg-tx       seq=1001       ack=501        bytes=64     aux=0
`
	if body != want {
		t.Errorf("flow-text golden mismatch:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

func TestTimeseriesEndpointDisabled(t *testing.T) {
	code, body := get(t, goldenTelemetry(), "/debug/timeseries")
	if code != 404 {
		t.Fatalf("disabled timeseries endpoint: status %d, body %q", code, body)
	}
}

func TestTimeseriesEndpointEnabled(t *testing.T) {
	telem := goldenTelemetry()
	telem.Series = NewTimeSeries(telem.Registry, 0, 16)
	telem.Series.Snap()
	telem.Series.Snap()
	code, body := get(t, telem, "/debug/timeseries")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var d SeriesDump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("timeseries body not valid JSON: %v\n%s", err, body)
	}
	if len(d.AtMS) != 2 {
		t.Fatalf("want 2 snapshots, got %d", len(d.AtMS))
	}
	if vals := d.Values("tas_test_packets_total", map[string]string{"core": "0"}); len(vals) != 2 || vals[0] != 42 {
		t.Fatalf("series values = %v, want [42 42]", vals)
	}
}
