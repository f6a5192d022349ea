package tas_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	tas "repro"
)

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
		id := s.Name
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
		var parts []string
		for k, v := range s.Labels {
			parts = append(parts, k+"="+v)
		}
		// map iteration order: sort for a stable identity
		for i := 0; i < len(parts); i++ {
			for j := i + 1; j < len(parts); j++ {
				if parts[j] < parts[i] {
					parts[i], parts[j] = parts[j], parts[i]
				}
			}
		}
		id += "{" + strings.Join(parts, ",") + "}"
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
