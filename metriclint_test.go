package tas_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	tas "repro"
	"repro/internal/fastpath"
	"repro/internal/slowpath"
	"repro/internal/telemetry"
)

// seriesID is a series' identity in the exposition: name{sorted labels}.
func seriesID(s telemetry.Sample) string {
	parts := make([]string, 0, len(s.Labels))
	for k, v := range s.Labels {
		parts = append(parts, fmt.Sprintf("%s=%q", k, v))
	}
	sort.Strings(parts)
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

var (
	lintMetricName = regexp.MustCompile(`^tas_[a-z0-9_]+$`)
	lintLabelKey   = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	// Counter names must state their unit of accumulation.
	lintCounterSuffixes = []string{"_total", "_count", "_sum"}
)

// TestMetricNamingConventions walks every series a fully built service
// registers — counters, gauges, histograms, the latency observatory,
// ring-depth gauges — and enforces the Prometheus naming rules the
// repo's exposition promises: tas_ prefix, lowercase snake case,
// counters ending in an accumulation suffix, and valid label keys.
// Registering a nonconforming metric anywhere in the stack fails here,
// not in a dashboard three weeks later.
func TestMetricNamingConventions(t *testing.T) {
	fab := tas.NewFabric()
	srv, err := fab.NewService("10.0.0.1", tas.Config{
		Telemetry: tas.TelemetryConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	samples := srv.Metrics().Samples()
	if len(samples) == 0 {
		t.Fatal("registry exposed no series")
	}
	seen := map[string]bool{}
	for _, s := range samples {
		if !lintMetricName.MatchString(s.Name) {
			t.Errorf("metric %q: name violates ^tas_[a-z0-9_]+$", s.Name)
		}
		if strings.Contains(s.Name, "__") {
			t.Errorf("metric %q: double underscore", s.Name)
		}
		switch s.Kind {
		case "counter":
			ok := false
			for _, suf := range lintCounterSuffixes {
				if strings.HasSuffix(s.Name, suf) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("counter %q: name must end in one of %v", s.Name, lintCounterSuffixes)
			}
		case "gauge":
			if strings.HasSuffix(s.Name, "_total") {
				t.Errorf("gauge %q: _total suffix is reserved for counters", s.Name)
			}
		default:
			t.Errorf("metric %q: unknown kind %q", s.Name, s.Kind)
		}
		for k, v := range s.Labels {
			if !lintLabelKey.MatchString(k) {
				t.Errorf("metric %q: label key %q violates ^[a-z][a-z0-9_]*$", s.Name, k)
			}
			if v == "" {
				t.Errorf("metric %q: label %q has empty value", s.Name, k)
			}
		}
		// Duplicate series (same name + label set) would collide in any
		// Prometheus scrape.
		id := seriesID(s)
		if seen[id] {
			t.Errorf("duplicate series %s", id)
		}
		seen[id] = true
	}

	// Every metric must carry non-empty help text in the exposition.
	var b bytes.Buffer
	if err := srv.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "# HELP ") {
			continue
		}
		rest := strings.TrimPrefix(line, "# HELP ")
		name, help, found := strings.Cut(rest, " ")
		if !found || strings.TrimSpace(help) == "" {
			t.Errorf("metric %q: empty help text", name)
		}
	}
}

// TestGovernorMetricPresence pins the resource-governor series the
// dashboards and scenario assertions depend on: the pressure-ladder
// gauges, a full per-pool gauge/counter family for every governed pool,
// per-rung engagement and shed counters, the quota-denial counter, and
// the ladder's SYN-shed drop cause. Renaming or dropping any of these
// breaks consumers silently, so their presence is asserted by exact
// series identity — and TestMetricNamingConventions above lints the
// same series for convention violations automatically.
func TestGovernorMetricPresence(t *testing.T) {
	fab := tas.NewFabric()
	srv, err := fab.NewService("10.0.0.1", tas.Config{
		Telemetry: tas.TelemetryConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type series struct {
		name       string
		labelKey   string
		labelValue string
	}
	want := []series{
		{"tas_pressure_level", "", ""},
		{"tas_pressure_peak_level", "", ""},
		{"tas_pressure_ratio", "", ""},
		{"tas_pressure_quota_rejects_total", "", ""},
		{"tas_pressure_flow_denials_total", "", ""},
		{"tas_pressure_idle_reclaimed_total", "", ""},
		{"tas_drops_total", "cause", "syn_shed_pressure"},
	}
	for _, pool := range []string{"payload_bytes", "flows", "half_open", "contexts", "timers", "accept"} {
		want = append(want,
			series{"tas_pool_used", "pool", pool},
			series{"tas_pool_cap", "pool", pool},
			series{"tas_pool_peak", "pool", pool},
			series{"tas_pool_rejects_total", "pool", pool},
			series{"tas_pool_underflow_total", "pool", pool},
		)
	}
	for _, rung := range []string{"cookies", "shed_syn", "clamp_tx", "reclaim"} {
		want = append(want,
			series{"tas_pressure_engaged_total", "rung", rung},
			series{"tas_pressure_sheds_total", "rung", rung},
		)
	}

	have := map[series]bool{}
	for _, s := range srv.Metrics().Samples() {
		if len(s.Labels) == 0 {
			have[series{s.Name, "", ""}] = true
			continue
		}
		for k, v := range s.Labels {
			have[series{s.Name, k, v}] = true
		}
	}
	for _, w := range want {
		if !have[w] {
			if w.labelKey == "" {
				t.Errorf("missing series %s", w.name)
			} else {
				t.Errorf("missing series %s{%s=%q}", w.name, w.labelKey, w.labelValue)
			}
		}
	}
}

// TestMetricSeriesStable pins the whole exposition of a fully built
// service — every series' name, label set and kind — to the list
// captured before the counters moved to one declaration each. tastop,
// dashboards and scenario assertions read series by name; a refactor
// that renames or drops one fails here. A deliberate change edits
// testdata/metric_series.golden in the same commit.
func TestMetricSeriesStable(t *testing.T) {
	fab := tas.NewFabric()
	srv, err := fab.NewService("10.0.0.1", tas.Config{
		Telemetry: tas.TelemetryConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	golden, err := os.ReadFile("testdata/metric_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		want[line] = true
	}
	for _, s := range srv.Metrics().Samples() {
		line := seriesID(s) + " " + s.Kind
		if !want[line] {
			t.Errorf("series not in the golden list: %s", line)
		}
		delete(want, line)
	}
	for line := range want {
		t.Errorf("series gone from the exposition: %s", line)
	}
}

// TestEveryCounterHasOneSeries walks the two counter declarations —
// slowpath.Counters and fastpath.DropStats — and checks what used to be
// five hand-kept lists: every field is reachable from tas.ServiceStats
// under its own name, says in its tag what series it exports (or "-",
// none) and has exactly that one series registered, reads the same
// through the series as through Stats, and does not go backwards across
// Service.Restart.
func TestEveryCounterHasOneSeries(t *testing.T) {
	fab := tas.NewFabric()
	cfg := tas.Config{Telemetry: tas.TelemetryConfig{Enabled: true}}
	srv, err := fab.NewService("10.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := fab.NewService("10.0.0.2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Move some counters off zero: a handshake, an echo, a refused dial.
	ln, err := srv.NewContext().Listen(9400)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if c, err := ln.Accept(5 * time.Second); err == nil {
			buf := make([]byte, 8)
			n, _ := c.Read(buf)
			c.Write(buf[:n])
		}
	}()
	cctx := cli.NewContext()
	c, err := cctx.Dial("10.0.0.1", 9400)
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("ping"))
	if _, err := c.Read(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := cctx.Dial("10.0.0.1", 9401); err == nil {
		t.Fatal("dial to a port nobody listens on succeeded")
	}

	type field struct {
		name, series string
	}
	var fields []field
	for _, typ := range []reflect.Type{reflect.TypeOf(slowpath.Counters{}), reflect.TypeOf(fastpath.DropStats{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			sf, ok := reflect.TypeOf(tas.ServiceStats{}).FieldByName(f.Name)
			if !ok || sf.Type.Kind() != reflect.Uint64 || len(sf.Index) != 2 {
				t.Errorf("%s.%s is not promoted into tas.ServiceStats", typ.Name(), f.Name)
				continue
			}
			if f.Tag.Get("help") == "" {
				t.Errorf("%s.%s: no help text in its tag", typ.Name(), f.Name)
			}
			metric, cause, drop := f.Tag.Get("metric"), f.Tag.Get("cause"), f.Tag.Get("drop")
			switch {
			case metric == "-":
				metric = ""
			case metric == "" && drop != "":
				metric = "tas_drops_total{cause=" + fmt.Sprintf("%q", drop) + "}"
			case metric == "":
				t.Errorf("%s.%s: tag names no series (metric, or drop; \"-\" for none)", typ.Name(), f.Name)
			case cause != "":
				metric += "{cause=" + fmt.Sprintf("%q", cause) + "}"
			default:
				metric += "{}"
			}
			fields = append(fields, field{f.Name, metric})
		}
	}

	read := func() (map[string]uint64, map[string][]float64) {
		byField, bySeries := map[string]uint64{}, map[string][]float64{}
		st := reflect.ValueOf(srv.Stats())
		for _, f := range fields {
			byField[f.name] = st.FieldByName(f.name).Uint()
		}
		for _, s := range srv.Metrics().Samples() {
			bySeries[seriesID(s)] = append(bySeries[seriesID(s)], s.Value)
		}
		return byField, bySeries
	}
	before, series := read()
	if before["Accepted"] == 0 || before["Established"] == 0 {
		t.Fatalf("traffic left the counters at zero: %v", before)
	}
	for _, f := range fields {
		if f.series == "" {
			continue
		}
		if got := series[f.series]; len(got) != 1 {
			t.Errorf("%s: %d series named %s, want exactly one", f.name, len(got), f.series)
		} else if uint64(got[0]) != before[f.name] {
			t.Errorf("%s: series %s reads %v, Stats reads %d", f.name, f.series, got[0], before[f.name])
		}
	}

	srv.Restart()
	after, seriesAfter := read()
	for _, f := range fields {
		if after[f.name] < before[f.name] {
			t.Errorf("%s went backwards across Restart: %d -> %d", f.name, before[f.name], after[f.name])
		}
		if f.series != "" && len(seriesAfter[f.series]) == 1 && seriesAfter[f.series][0] < series[f.series][0] {
			t.Errorf("series %s went backwards across Restart: %v -> %v", f.series, series[f.series][0], seriesAfter[f.series][0])
		}
	}
}
