package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one metric dimension, e.g. {"core", "3"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// MetricKind distinguishes monotonic counters from point-in-time
// gauges in the exposition output.
type MetricKind uint8

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
)

func (k MetricKind) String() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// metric is one registered time series: a name, help text, a fixed
// label set, and a read function sampled at scrape time.
type metric struct {
	name   string
	help   string
	kind   MetricKind
	labels []Label
	read   func() float64
}

func (m *metric) labelString() string {
	if len(m.labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range m.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is the unified metrics surface: every counter, gauge, and
// derived statistic of a service registers here once and is sampled at
// scrape time. Registration takes a mutex; the hot paths never touch
// the registry — a scrape reads their atomics.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// CounterFunc registers a counter whose value is sampled from read at
// scrape time. A product counter is an atomic its owner bumps (a
// CoreStats field, the slow path's counter block); this is how it is
// exported.
func (r *Registry) CounterFunc(name, help string, read func() float64, labels ...Label) {
	r.add(&metric{name: name, help: help, kind: KindCounter, labels: labels, read: read})
}

// GaugeFunc registers a gauge sampled from read at scrape time.
func (r *Registry) GaugeFunc(name, help string, read func() float64, labels ...Label) {
	r.add(&metric{name: name, help: help, kind: KindGauge, labels: labels, read: read})
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// snapshot returns the metric list sorted by (name, labels) so series
// sharing a name group together under one HELP/TYPE header.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labelString() < ms[j].labelString()
	})
	return ms
}

// WriteText writes the registry in Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	var b strings.Builder
	prev := ""
	for _, m := range r.snapshot() {
		if m.name != prev {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
			prev = m.name
		}
		fmt.Fprintf(&b, "%s%s %s\n", m.name, m.labelString(),
			strconv.FormatFloat(m.read(), 'g', -1, 64))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Sample is one scraped series for the JSON exposition.
type Sample struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Samples scrapes every registered series.
func (r *Registry) Samples() []Sample {
	ms := r.snapshot()
	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Kind: m.kind.String(), Value: m.read()}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON writes the registry as a JSON array of samples.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // flow keys contain "->"
	enc.SetIndent("", "  ")
	return enc.Encode(r.Samples())
}
