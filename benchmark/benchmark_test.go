package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMain lets the test binary stand in for the program: a traced run
// starts the layer probes as a child of its own executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-probe" {
		os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestDeclaredEqualsPrinted runs every workload, plain and traced, and
// the probes, each for a fraction of a second, through the same code
// that prints for the accepting driver, and holds what is printed to
// what BENCHMARK.json declares.
func TestDeclaredEqualsPrinted(t *testing.T) {
	if raceEnabled {
		t.Skip("1 s op deadlines do not survive the race detector's slowdown; see README.md on rpc_paced")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := sp.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		for _, mode := range []struct {
			trace    bool
			declared []specMetric
		}{{false, sp.EndToEnd}, {true, sp.PerLayer}} {
			var stdout, stderr bytes.Buffer
			code := single(&stdout, &stderr, params{
				workload: w, seed: 7, seconds: 0.4, epochs: 2, setups: 1, warmup: 0.1, window: 0.1,
				trace: mode.trace,
			})
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", w.name, mode.trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res wireResult
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%v: last line is not a result: %v", w.name, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, mode.trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			if len(res.Metrics) != len(mode.declared) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d",
					w.name, mode.trace, len(res.Metrics), len(mode.declared))
			}
			for _, d := range mode.declared {
				got, ok := res.Metrics[d.Name]
				switch {
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
				case !ok:
					t.Errorf("%s trace=%v: %s is declared but not printed", w.name, mode.trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: printed in %q, declared in %q", d.Name, got.Unit, d.Unit)
				case !mode.trace && got.Value <= 0:
					t.Errorf("%s trace=%v: end-to-end metric %s = %v, must never be 0", w.name, mode.trace, d.Name, got.Value)
				}
			}
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is not made of letters, digits, _ . -", w.name)
		}
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to what the
// accepting driver computes: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
}
