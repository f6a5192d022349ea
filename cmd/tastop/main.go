// Command tastop is a live terminal view of a running TAS service's
// latency observatory — the `top` for the data plane. It polls the
// telemetry HTTP surface (tasd -metrics-addr) and renders per-core
// packet rates, shmring queue depths, RTT/handshake/wakeup latency
// percentiles, and drop causes, refreshing in place:
//
//	tasd -metrics-addr :9090 &
//	tastop -addr localhost:9090
//
// One frame per -interval; -once prints a single frame and exits
// (useful for scripts and smoke tests).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:9090", "telemetry HTTP address of the running service")
		interval = flag.Duration("interval", time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render one frame and exit (no screen clearing)")
	)
	flag.Parse()

	url := "http://" + *addr + "/metrics.json"
	var prev map[string]float64
	prevAt := time.Now()
	for {
		samples, err := scrape(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tastop: %v\n", err)
			os.Exit(1)
		}
		now := time.Now()
		frame := render(samples, prev, now.Sub(prevAt))
		if *once {
			fmt.Print(frame)
			return
		}
		// Home + clear-to-end keeps the refresh flicker-free.
		fmt.Print("\x1b[H\x1b[2J" + frame)
		prev = index(samples)
		prevAt = now
		time.Sleep(*interval)
	}
}

func scrape(url string) ([]telemetry.Sample, error) {
	cli := http.Client{Timeout: 5 * time.Second}
	resp, err := cli.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var out []telemetry.Sample
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// seriesKey flattens a sample identity for delta tracking.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := strings.Builder{}
	b.WriteString(name)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, labels[k])
	}
	return b.String()
}

func index(samples []telemetry.Sample) map[string]float64 {
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[seriesKey(s.Name, s.Labels)] = s.Value
	}
	return m
}

// view is the frame model extracted from one scrape.
type view struct {
	cores map[string]*coreRow // by core label
	rtt   map[string]float64  // metric name -> quantile value, for q labels
	drops []dropRow
	gauge map[string]float64 // unlabeled gauges by name
}

type coreRow struct {
	core                 string
	rxPPS, txPPS, ackPPS float64
	parkShare, pollShare float64 // of the refresh interval
	rxDepth, kickDepth   float64
	ctxEvDepth           float64
}

type dropRow struct {
	cause string
	total float64
	rate  float64
}

// render builds one frame. prev/elapsed supply counter deltas for
// rates; on the first frame (prev nil) rates read 0.
func render(samples []telemetry.Sample, prev map[string]float64, elapsed time.Duration) string {
	v := view{cores: map[string]*coreRow{}, rtt: map[string]float64{}, gauge: map[string]float64{}}
	secs := elapsed.Seconds()
	rate := func(s telemetry.Sample) float64 {
		if prev == nil || secs <= 0 {
			return 0
		}
		d := s.Value - prev[seriesKey(s.Name, s.Labels)]
		if d < 0 { // counter reset (service restart)
			d = s.Value
		}
		return d / secs
	}
	core := func(s telemetry.Sample) *coreRow {
		c := s.Labels["core"]
		row := v.cores[c]
		if row == nil {
			row = &coreRow{core: c}
			v.cores[c] = row
		}
		return row
	}
	for _, s := range samples {
		switch s.Name {
		case "tas_fastpath_rx_packets_total":
			core(s).rxPPS = rate(s)
		case "tas_fastpath_tx_packets_total":
			core(s).txPPS = rate(s)
		case "tas_fastpath_acks_sent_total":
			core(s).ackPPS = rate(s)
		case "tas_fastpath_core_park_seconds_total":
			core(s).parkShare = rate(s)
		case "tas_fastpath_core_poll_seconds_total":
			core(s).pollShare = rate(s)
		case "tas_ring_depth":
			switch s.Labels["ring"] {
			case "rx":
				core(s).rxDepth = s.Value
			case "kick":
				core(s).kickDepth = s.Value
			case "ctx_ev":
				core(s).ctxEvDepth = s.Value
			case "excq":
				v.gauge["excq_depth"] = s.Value
			}
		case "tas_rtt_us", "tas_handshake_us", "tas_wakeup_us":
			if q := s.Labels["quantile"]; q != "" {
				v.rtt[s.Name+" p"+q] = s.Value
			}
		case "tas_drops_total":
			if s.Value > 0 {
				v.drops = append(v.drops, dropRow{cause: s.Labels["cause"], total: s.Value, rate: rate(s)})
			}
		case "tas_slowpath_flows":
			v.gauge["ctl_"+s.Labels["state"]] = s.Value
		case "tas_flows_live", "tas_active_cores", "tas_accept_backlog",
			"tas_half_open", "tas_slowpath_degraded", "tas_live_payload_bytes":
			v.gauge[s.Name] = s.Value
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "tastop — flows %.0f  active-cores %.0f  half-open %.0f  accept-backlog %.0f  excq %.0f  ctl active/parked %.0f/%.0f",
		v.gauge["tas_flows_live"], v.gauge["tas_active_cores"], v.gauge["tas_half_open"],
		v.gauge["tas_accept_backlog"], v.gauge["excq_depth"], v.gauge["ctl_active"], v.gauge["ctl_parked"])
	if v.gauge["tas_slowpath_degraded"] > 0 {
		b.WriteString("  [SLOW PATH DEGRADED]")
	}
	b.WriteString("\n\n")

	b.WriteString("core     rx pps     tx pps    ack pps  park%  poll%    rxq  kickq  ctx-ev\n")
	names := make([]string, 0, len(v.cores))
	for c := range v.cores {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		r := v.cores[c]
		fmt.Fprintf(&b, "%-4s %10.0f %10.0f %10.0f %6.1f %6.1f %6.0f %6.0f %7.0f\n",
			r.core, r.rxPPS, r.txPPS, r.ackPPS, 100*r.parkShare, 100*r.pollShare,
			r.rxDepth, r.kickDepth, r.ctxEvDepth)
	}

	b.WriteString("\nlatency (µs)        p0.5       p0.9      p0.99     p0.999\n")
	for _, m := range []struct{ label, name string }{
		{"rtt", "tas_rtt_us"},
		{"handshake", "tas_handshake_us"},
		{"app wakeup", "tas_wakeup_us"},
	} {
		fmt.Fprintf(&b, "%-12s %10.1f %10.1f %10.1f %10.1f\n", m.label,
			v.rtt[m.name+" p0.5"], v.rtt[m.name+" p0.9"], v.rtt[m.name+" p0.99"], v.rtt[m.name+" p0.999"])
	}

	if len(v.drops) > 0 {
		sort.Slice(v.drops, func(i, j int) bool { return v.drops[i].total > v.drops[j].total })
		b.WriteString("\ndrops by cause          total       /s\n")
		for _, d := range v.drops {
			fmt.Fprintf(&b, "%-20s %9.0f %8.1f\n", d.cause, d.total, d.rate)
		}
	}
	return b.String()
}
