package scenario

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	tas "repro"
	"repro/internal/config"
	"repro/internal/fastpath"
	"repro/internal/slowpath"
)

// TestEffectiveConfigGolden pins every knob's effective value — the
// engine's configuration after Fill, with the governor's filled limits —
// plus the congestion controller's name and initial rate, for the
// default service, the benchmark's rpcBufs configuration, and the server
// and first client of every library scenario. The golden file was first
// written from the parent of the one-schema change, so a diff here is a
// change in what some service runs with.
func TestEffectiveConfigGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  tas.Config
	}{
		{"default", tas.Config{}},
		{"benchmark-rpcBufs", tas.Config{RxBufSize: 16 << 10, TxBufSize: 16 << 10}},
	} {
		svc, err := tas.NewFabric().NewService("10.0.0.1", c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		writeEffective(&b, c.name, svc)
		svc.Close()
	}
	for _, n := range Names() {
		spec, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newRun(spec, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		writeEffective(&b, n+"/server", r.srv)
		writeEffective(&b, n+"/client", r.clients[0])
		r.teardown()
	}
	want, err := os.ReadFile("testdata/effective_config.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("effective config differs from testdata/effective_config.golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("effective config has %d lines, golden %d", len(gl), len(wl))
	}
}

// writeEffective lists one service's knobs in declaration order.
func writeEffective(b *strings.Builder, name string, svc *tas.Service) {
	cfg := svc.Engine().Config()
	cfg.Limits = svc.Governor().Limits()
	fmt.Fprintf(b, "== %s\n", name)
	v := reflect.ValueOf(cfg)
	for _, f := range reflect.VisibleFields(v.Type()) {
		switch f.Name {
		case "LocalIP", "LocalMAC", "Gov", "NewController", "Limits":
			continue // wiring, and the struct whose fields follow
		}
		fv := v.FieldByIndex(f.Index)
		switch fv.Kind() {
		case reflect.String:
			fmt.Fprintf(b, "%s %q\n", f.Name, fv.String())
		case reflect.Struct:
			fmt.Fprintf(b, "%s %+v\n", f.Name, fv.Interface())
		default:
			fmt.Fprintf(b, "%s %v\n", f.Name, fv.Interface())
		}
	}
	c := cfg.NewController()
	fmt.Fprintf(b, "controller %s %g\n", c.Name(), c.Rate())
}

// TestEveryKnobDeclaredOnce: the facade's, the slow path's and the fast
// path's configuration are one type, the scenario topology declares no
// knob of its own beside the host and core counts, and the topology
// accepts exactly the keys it always has.
func TestEveryKnobDeclaredOnce(t *testing.T) {
	one := reflect.TypeOf(config.Config{})
	for _, typ := range []reflect.Type{
		reflect.TypeOf(tas.Config{}), reflect.TypeOf(slowpath.Config{}), reflect.TypeOf(fastpath.Config{}),
	} {
		if typ != one {
			t.Errorf("%v is not config.Config", typ)
		}
	}

	var own []string
	var keys []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Topology{})) {
		if len(f.Index) == 1 && !f.Anonymous {
			own = append(own, f.Name)
		}
		if key, _, _ := strings.Cut(f.Tag.Get("json"), ","); key != "" && key != "-" {
			keys = append(keys, key)
		}
	}
	if got := strings.Join(own, " "); got != "Clients ServerCores ClientCores" {
		t.Errorf("Topology declares its own fields %s", got)
	}
	sort.Strings(keys)
	want := []string{
		"app_max_flows", "app_max_payload_bytes", "challenge_ack_per_sec",
		"client_cores", "clients", "congestion_control", "core_timeout",
		"disable_core_scaling", "fin_wait2_timeout", "handshake_rto",
		"idle_reclaim_age", "keepalive_interval", "keepalive_probes", "keepalive_time",
		"listen_backlog", "max_flows", "max_half_open", "max_payload_bytes",
		"max_persist_probes", "max_retransmits", "persist_rto", "pressure_engage_pct",
		"pressure_release_pct", "reclaim_batch", "rx_buf_bytes", "server_cores",
		"slowpath_timeout", "syn_cookies", "time_wait", "tx_buf_bytes",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("topology keys changed:\n got  %v\n want %v", keys, want)
	}
}
