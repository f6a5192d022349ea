package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json: the names, units, directions and bounds the
// accepting driver holds this program to.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json from the repository root or from this
// program's own directory.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// setResult is one workload's numbers from one set.
type setResult struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Plain    wireResult `json:"plain"`
	Traced   wireResult `json:"traced"`
}

// child runs this program with args in a fresh process, passes on what
// it prints for people, and parses its last line.
func child(stdout, stderr io.Writer, args ...string) (wireResult, error) {
	var res wireResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	text := strings.TrimRight(buf.String(), "\n")
	body, last := text, ""
	if i := strings.LastIndexByte(text, '\n'); i >= 0 {
		body, last = text[:i], text[i+1:]
	}
	fmt.Fprintln(stdout, body)
	if runErr != nil {
		return res, fmt.Errorf("child %s: %w", strings.Join(args, " "), runErr)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("child %s: last line is not a result: %w", strings.Join(args, " "), err)
	}
	return res, nil
}

// workloadChild is one run as the accepting driver starts it.
func workloadChild(stdout, stderr io.Writer, workload string, seed int64, seconds float64, trace int) (wireResult, error) {
	return child(stdout, stderr, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
}

// suite runs the whole set, repeat times, one fresh child process per
// workload and mode, and reports every metric against its bound.
func suite(stdout, stderr io.Writer, seed int64, seconds float64, trace, repeat int) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: cannot judge against bounds:", err)
		return 1
	}
	st := newStamp(seed)
	st.print(stdout)
	var sets [][]setResult
	ok := true
	for k := 0; k < repeat; k++ {
		var set []setResult
		for _, w := range workloads {
			r := setResult{Workload: w.name, Seed: seed + int64(k)}
			if trace != 1 {
				if r.Plain, err = workloadChild(stdout, stderr, w.name, r.Seed, seconds, 0); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				ok = ok && r.Plain.Correct && r.Plain.Failed == 0
			}
			if trace != 0 {
				if r.Traced, err = workloadChild(stdout, stderr, w.name, r.Seed, seconds, 1); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				ok = ok && r.Traced.Correct && r.Traced.Failed == 0
			}
			set = append(set, r)
		}
		sets = append(sets, set)
	}

	fmt.Fprintln(stdout)
	st.print(stdout)
	if trace != 1 {
		ok = report(stdout, sp.EndToEnd, sets, func(r setResult) wireResult { return r.Plain }, true) && ok
	}
	if trace != 0 {
		report(stdout, sp.PerLayer, sets, func(r setResult) wireResult { return r.Traced }, false)
	}
	if !ok {
		fmt.Fprintln(stdout, "FAIL: a run failed an op, was incorrect, or a metric moved by more than its bound between sets")
	}

	path := filepath.Join(defaultOutDir(), fmt.Sprintf("results-seed%d.json", seed))
	if err := writeJSON(path, map[string]any{"stamp": st, "seconds": seconds, "sets": sets}); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, "results:", path)
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// report prints, per metric and workload, the median, quartiles and
// relative spread (inter-quartile distance / median, the accepting
// driver's measure) over the sets. A layer probe's metric is printed
// once, over every traced run of every set: no workload moves it. With
// judge set, report also compares the median of the first half of the
// sets with that of the second half, as the driver compares two sets of
// runs, and returns false when the two differ, in either direction, by
// more than the metric's bound: both halves ran the same code.
func report(w io.Writer, defs []specMetric, sets [][]setResult, pick func(setResult) wireResult, judge bool) bool {
	ok := true
	fmt.Fprintf(w, "%-30s %-15s %12s %12s %12s %8s %7s\n", "metric", "workload", "median", "q1", "q3", "spread", "bound")
	for _, d := range defs {
		probe := slices.ContainsFunc(probeDefs, func(p metricDef) bool { return p.name == d.Name })
		for wi, wl := range workloads {
			label := wl.name
			var vals []float64
			for _, set := range sets {
				if !probe {
					vals = append(vals, pick(set[wi]).Metrics[d.Name].Value)
					continue
				}
				label = "(layer probe)"
				for _, r := range set {
					vals = append(vals, pick(r).Metrics[d.Name].Value)
				}
			}
			q1, q2, q3 := quartiles(vals)
			spread := ratio(q3-q1, q2)
			line := fmt.Sprintf("%-30s %-15s %12s %12s %12s %7.1f%%", d.Name, label, fmtVal(q2), fmtVal(q1), fmtVal(q3), spread*100)
			if judge {
				line += fmt.Sprintf(" %6.1f%%", d.Bound*100)
				if len(vals) >= 4 && spread > d.Bound && d.Name != "setup_s" {
					line += "  spread exceeds bound"
				}
				if len(vals) >= 2 {
					a, b := median(vals[:len(vals)/2]), median(vals[len(vals)/2:])
					if ratio(math.Abs(a-b), min(a, b)) > d.Bound {
						line += fmt.Sprintf("  sets disagree: %s -> %s", fmtVal(a), fmtVal(b))
						ok = false
					}
				}
			}
			fmt.Fprintln(w, line)
			if probe {
				break
			}
		}
	}
	return ok
}
