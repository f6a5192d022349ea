package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// metricDef names one reported number. The tables below are the
// program's half of the contract with BENCHMARK.json: the test asserts
// that the names and units printed equal the names and units declared
// there. README.md says what each measures and what it should move.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the stack sees. Every workload reports
// all of them; the run is measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"goodput_gbps", "Gbit/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
}

// loadDefs are the per-layer metrics a traced run takes from the
// workload itself: spans and counter deltas. Layer = module name.
var loadDefs = []metricDef{
	{"libtas.send_ns", "ns"},
	{"libtas.recv_ns", "ns"},
	{"libtas.app_copy_ns_per_kib", "ns"},
	{"libtas.app_copy_cpu_share", "share"},
	{"libtas.wakeup_p50_us", "us"},
	{"libtas.wakeup_p99_us", "us"},

	{"fastpath.rx_ns_per_pkt", "ns"},
	{"fastpath.tx_ns_per_item", "ns"},
	{"fastpath.pkts_per_op", "count"},
	{"fastpath.acks_per_op", "count"},
	{"fastpath.blocks_per_s", "1/s"},
	{"fastpath.rx_ring_depth_p99", "count"},
	{"fastpath.rx_ring_drops", "count"},
	{"fastpath.rxbuf_drops", "count"},
	{"fastpath.ooo_dropped", "count"},
	{"fastpath.exceptions_per_op", "count"},
	{"fastpath.active_cores", "count"},

	{"slowpath.tick_us", "us"},
	{"slowpath.timer_sweep_us", "us"},
	{"slowpath.dial_us_p50", "us"},
	{"slowpath.rexmit_timeouts", "count"},
	{"slowpath.handshake_rexmits", "count"},

	{"fabric.dropped", "count"},
	{"fabric.delivered_per_op", "count"},

	{"trace.overhead_share", "share"},
	{"trace.unattributed_share", "share"},

	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.peak_rss_mib", "MiB"},

	{"harness.null_op_ns", "ns"},
	{"harness.gen_late_p99_us", "us"},
	{"harness.outstanding_max", "count"},
	{"harness.lat_p999_us", "us"},
	{"harness.failed_share", "share"},
}

// probeDefs are the layer probes' metrics: no workload moves them, and
// -probe layers is the one place they are measured.
var probeDefs = []metricDef{
	{"flowstate.lookup_ns_1", "ns"},
	{"flowstate.lookup_ns_2048", "ns"},
	{"flowstate.flow_bytes", "B"},
	{"shmring.spsc_hop_ns", "ns"},
	{"shmring.mpsc_hop_ns", "ns"},
	{"shmring.payload_ns_64", "ns"},
	{"shmring.payload_ns_mss", "ns"},
	{"fabric.hop_ns", "ns"},
	{"congestion.update_ns", "ns"},
	{"slowpath.probe_handshake_us", "us"},
	{"fastpath.probe_rx_ns_pkt_64", "ns"},
	{"fastpath.probe_rx_ns_pkt_mss", "ns"},
	{"fastpath.probe_tx_ns_pkt_mss", "ns"},
}

// perLayer is what a traced run reports.
var perLayer = slices.Concat(loadDefs, probeDefs)

// metrics collects values by name and refuses names the tables do not
// declare, so a typo cannot create a metric.
type metrics struct {
	defs   []metricDef
	values map[string]float64
}

func newMetrics(defs []metricDef) *metrics {
	return &metrics{defs: defs, values: make(map[string]float64, len(defs))}
}

func (m *metrics) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			m.values[name] = v
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// missing lists declared metrics that were never set.
func (m *metrics) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// quantile returns the q-quantile of sorted by linear interpolation
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles follows Python's statistics.quantiles(v, n=4) (exclusive
// method), which is what the accepting driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func fmtVal(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
