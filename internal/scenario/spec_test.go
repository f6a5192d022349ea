package scenario

import (
	"errors"
	"testing"
	"time"
)

// TestParseSpecRejections is the table-driven validation gauntlet:
// malformed JSON, unknown kinds, out-of-range indices, and broken
// timelines must all come back as the right typed error before
// anything executes.
func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		json string
		want error
	}{
		{
			name: "malformed json",
			json: `{"name": "x", "workload": {`,
			want: ErrBadSpec,
		},
		{
			name: "unknown top-level field",
			json: `{"name":"x","workload":{"kind":"rpc"},"frobnicate":1}`,
			want: ErrBadSpec,
		},
		{
			name: "missing name",
			json: `{"workload":{"kind":"rpc"}}`,
			want: ErrBadSpec,
		},
		{
			name: "unknown workload kind",
			json: `{"name":"x","workload":{"kind":"multicast"}}`,
			want: ErrUnknownKind,
		},
		{
			name: "unknown impairment kind",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "impairments":[{"at":"1s","kind":"gravity"}]}`,
			want: ErrUnknownKind,
		},
		{
			name: "unknown fault kind",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "faults":[{"at":"1s","kind":"cosmic-ray"}]}`,
			want: ErrUnknownKind,
		},
		{
			name: "unknown drop cause",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "assert":{"drop_causes":{"gremlins":0}}}`,
			want: ErrUnknownKind,
		},
		{
			name: "per-app quota over global pool",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "topology":{"max_flows":10,"app_max_flows":11}}`,
			want: ErrBadSpec,
		},
		{
			name: "inverted pressure watermarks",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "topology":{"pressure_engage_pct":60,"pressure_release_pct":70}}`,
			want: ErrBadSpec,
		},
		{
			name: "watermark over 100",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "topology":{"pressure_engage_pct":140,"pressure_release_pct":55}}`,
			want: ErrBadSpec,
		},
		{
			name: "negative pool cap",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "topology":{"max_payload_bytes":-1}}`,
			want: ErrBadSpec,
		},
		// The service's own config.Validate, one row per check.
		{
			name: "negative buffer size",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"rx_buf_bytes":-1}}`,
			want: ErrBadSpec,
		},
		{
			name: "buffer size not a power of two",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"rx_buf_bytes":100000}}`,
			want: ErrBadSpec,
		},
		{
			name: "negative idle reclaim age",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"idle_reclaim_age":"-1s"}}`,
			want: ErrBadSpec,
		},
		{
			name: "negative reclaim batch",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"reclaim_batch":-1}}`,
			want: ErrBadSpec,
		},
		{
			name: "negative persist rto",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"persist_rto":"-100ms"}}`,
			want: ErrBadSpec,
		},
		{
			name: "negative keepalive interval",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"keepalive_interval":-5}}`,
			want: ErrBadSpec,
		},
		{
			name: "negative probe budget",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"max_persist_probes":-1}}`,
			want: ErrBadSpec,
		},
		{
			name: "negative handshake rto",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"handshake_rto":"-25ms"}}`,
			want: ErrBadSpec,
		},
		{
			name: "negative retransmit budget",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"max_retransmits":-1}}`,
			want: ErrBadSpec,
		},
		{
			name: "negative listen backlog",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"listen_backlog":-1}}`,
			want: ErrBadSpec,
		},
		{
			name: "unknown syn-cookie mode",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"syn_cookies":"sometimes"}}`,
			want: ErrUnknownKind,
		},
		{
			name: "unknown congestion control",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"congestion_control":"bbr"}}`,
			want: ErrUnknownKind,
		},
		{
			name: "malformed topology duration",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"handshake_rto":"soon"}}`,
			want: ErrBadSpec,
		},
		{
			name: "config knob that is no topology key",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"control_interval":"1ms"}}`,
			want: ErrBadSpec,
		},
		{
			name: "removed knob app_timeout",
			json: `{"name":"x","workload":{"kind":"rpc"},"topology":{"app_timeout":"1s"}}`,
			want: ErrBadSpec,
		},
		{
			name: "removed fault kind app-stall",
			json: `{"name":"x","workload":{"kind":"rpc","conns":1},"topology":{"clients":1},
			        "faults":[{"at":"1s","kind":"app-stall","target":"client0","for":"1s"}]}`,
			want: ErrUnknownKind,
		},
		{
			name: "unknown governed pool",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "assert":{"max_pool_used":{"gremlins":0}}}`,
			want: ErrUnknownKind,
		},
		{
			name: "negative pool bound",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "assert":{"max_pool_used":{"flows":-1}}}`,
			want: ErrBadSpec,
		},
		{
			name: "pressure level out of range",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "assert":{"min_pressure_level":9}}`,
			want: ErrOutOfRange,
		},
		{
			name: "core index out of range",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "topology":{"server_cores":2},
			        "faults":[{"at":"1s","kind":"core-kill","core":5}]}`,
			want: ErrOutOfRange,
		},
		{
			name: "app index out of range",
			json: `{"name":"x","workload":{"kind":"rpc","conns":2},
			        "faults":[{"at":"1s","kind":"app-kill","target":"client0","app":2}]}`,
			want: ErrOutOfRange,
		},
		{
			name: "unknown fault target",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "faults":[{"at":"1s","kind":"slowpath-kill","target":"client7"}]}`,
			want: ErrOutOfRange,
		},
		{
			name: "unknown partition host",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "impairments":[{"at":"1s","kind":"partition","a":"server","b":"mars"}]}`,
			want: ErrOutOfRange,
		},
		{
			name: "impairments out of order",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "impairments":[{"at":"2s","kind":"loss","rate":0.1},
			                       {"at":"1s","kind":"clear-loss"}]}`,
			want: ErrTimeline,
		},
		{
			name: "faults out of order",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "faults":[{"at":"2s","kind":"slowpath-kill"},
			                  {"at":"1s","kind":"slowpath-restart"}]}`,
			want: ErrTimeline,
		},
		{
			name: "negative offset",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "faults":[{"at":-5,"kind":"slowpath-kill"}]}`,
			want: ErrTimeline,
		},
		{
			name: "overlapping stalls on one unit",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "faults":[{"at":"1s","kind":"slowpath-stall","for":"500ms"},
			                  {"at":"1200ms","kind":"slowpath-kill"}]}`,
			want: ErrTimeline,
		},
		{
			name: "loss probability out of range",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "impairments":[{"at":"1s","kind":"loss","rate":1.5}]}`,
			want: ErrBadSpec,
		},
		{
			name: "stall without duration",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "faults":[{"at":"1s","kind":"core-stall","core":0}]}`,
			want: ErrBadSpec,
		},
		{
			name: "kill with duration",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "faults":[{"at":"1s","kind":"core-kill","core":0,"for":"1s"}]}`,
			want: ErrBadSpec,
		},
		{
			name: "core-revive needs explicit index",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "faults":[{"at":"1s","kind":"core-revive","core":-1}]}`,
			want: ErrBadSpec,
		},
		{
			name: "app fault on server",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "faults":[{"at":"1s","kind":"app-kill","target":"server"}]}`,
			want: ErrBadSpec,
		},
		{
			name: "burst loss without parameters",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "impairments":[{"at":"1s","kind":"burst-loss"}]}`,
			want: ErrBadSpec,
		},
		{
			name: "rate impairment without link model",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "impairments":[{"at":"1s","kind":"rate","rate":50}]}`,
			want: ErrBadSpec,
		},
		{
			name: "delay impairment without link model",
			json: `{"name":"x","workload":{"kind":"rpc"},
			        "impairments":[{"at":"1s","kind":"delay","delay":"5ms"}]}`,
			want: ErrBadSpec,
		},
		{
			name: "link model without rate",
			json: `{"name":"x","workload":{"kind":"rpc"},"link":{"rate_mbps":0}}`,
			want: ErrBadSpec,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json))
			if err == nil {
				t.Fatalf("spec accepted, want %v", tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v (%T), want class %v", err, err, tc.want)
			}
		})
	}
}

// TestParseSpecValid: a well-formed spec parses, gets defaults, and
// round-trips through its own JSON rendering.
func TestParseSpecValid(t *testing.T) {
	src := `{
	  "name": "roundtrip",
	  "seed": 99,
	  "duration": "5s",
	  "topology": {"clients": 2, "server_cores": 4, "handshake_rto": "40ms", "time_wait": 2000000000, "max_flows": 64},
	  "link": {"rate_mbps": 100, "delay": "2ms"},
	  "impairments": [
	    {"at": "100ms", "kind": "loss", "rate": 0.05},
	    {"at": "1s", "kind": "clear-loss"},
	    {"at": "1s", "kind": "flap", "host": "client1", "count": 2, "down": "50ms", "up": "50ms"}
	  ],
	  "faults": [
	    {"at": "200ms", "kind": "core-kill", "core": -1},
	    {"at": "800ms", "kind": "slowpath-stall", "for": "300ms"}
	  ],
	  "workload": {"kind": "stream", "conns": 3},
	  "assert": {"intact": true, "all_complete": true, "max_recovery": "10s"}
	}`
	s, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload.TransferBytes != 128<<10 || s.Workload.Transfers != 1 {
		t.Fatalf("stream defaults not filled: %+v", s.Workload)
	}
	if s.Duration.D() != 5*time.Second {
		t.Fatalf("duration = %v", s.Duration.D())
	}
	if got := s.ExpectedOps(); got != 2*3*1 {
		t.Fatalf("ExpectedOps = %d, want 6", got)
	}
	// Round-trip: the canonical rendering must re-parse to an equivalent
	// spec (Duration marshals as a string).
	again, err := ParseSpec(s.JSON())
	if err != nil {
		t.Fatalf("re-parse of canonical JSON: %v", err)
	}
	if again.Assert.MaxRecovery.D() != 10*time.Second || len(again.Impairments) != 3 {
		t.Fatalf("round-trip lost data: %+v", again)
	}
	if tp := again.Topology; tp.HandshakeRTO != 40*time.Millisecond || tp.TimeWaitDuration != 2*time.Second || tp.Flows != 64 {
		t.Fatalf("topology knobs lost in the round trip: %+v", tp)
	}
}

// TestDurationForms: both human strings and raw nanoseconds unmarshal.
func TestDurationForms(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"150ms"`)); err != nil || d.D() != 150*time.Millisecond {
		t.Fatalf("string form: %v %v", d.D(), nil)
	}
	if err := d.UnmarshalJSON([]byte(`1000000`)); err != nil || d.D() != time.Millisecond {
		t.Fatalf("int form: %v", d.D())
	}
	if err := d.UnmarshalJSON([]byte(`"nonsense"`)); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// TestSpecLiteralMatchesJSON: a Spec literal and the JSON format are
// two spellings of the same spec.
func TestSpecLiteralMatchesJSON(t *testing.T) {
	built := &Spec{
		Name:        "b",
		Seed:        3,
		Duration:    2 * sec,
		Topology:    Topology{Clients: 2},
		Workload:    Workload{Kind: WorkStream, Conns: 2, Transfers: 3, TransferBytes: 32 << 10},
		Impairments: []Impairment{{At: 100 * ms, Kind: ImpLoss, Rate: 0.1}},
		Faults:      []FaultEvent{{At: 500 * ms, Kind: FaultSlowKill, Target: "server"}},
		Assert:      Assertions{Intact: true},
	}
	if err := built.Validate(); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(built.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if string(parsed.JSON()) != string(built.JSON()) {
		t.Fatalf("literal spec does not round-trip:\n%s\nvs\n%s", built.JSON(), parsed.JSON())
	}
}

// TestSpecLiteralRejects: a literal goes through the same validation as
// JSON.
func TestSpecLiteralRejects(t *testing.T) {
	s := &Spec{
		Name:     "bad",
		Workload: Workload{Kind: WorkRPC, Conns: 1, Calls: 10, MsgBytes: 64},
		Faults:   []FaultEvent{{At: 0, Kind: FaultCoreKill, Target: "server", Core: 9}},
	}
	if err := s.Validate(); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}
