package scenario

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	tas "repro"
	"repro/internal/telemetry"
)

// EventRecord is one applied timeline entry: the scheduled offset (part
// of the deterministic timeline) plus the wall-clock offset it actually
// fired at (measured, not deterministic).
type EventRecord struct {
	AtMS   float64 `json:"at_ms"`            // scheduled offset
	WallMS float64 `json:"wall_ms"`          // applied offset (measured)
	Kind   string  `json:"kind"`             // impairment or fault kind
	Target string  `json:"target,omitempty"` // host/service the event hit
	Detail string  `json:"detail,omitempty"` // resolved parameters
}

// OpRecord is one workload operation (a stream transfer or an RPC
// batch): identity and payload digest are seed-deterministic; attempts
// and timing are measured.
type OpRecord struct {
	Client   int    `json:"client"`
	Worker   int    `json:"worker"`
	Op       int    `json:"op"`
	SHA      string `json:"sha,omitempty"` // payload SHA-256 (stream)
	Bytes    int    `json:"bytes"`
	Done     bool   `json:"done"`
	Intact   bool   `json:"intact"`
	Attempts int    `json:"attempts"`
}

// WorkloadResult aggregates the workload outcome.
type WorkloadResult struct {
	Kind        string     `json:"kind"`
	Expected    int        `json:"expected"`
	Completed   int        `json:"completed"`
	Failed      int        `json:"failed"`
	Mismatches  int        `json:"mismatches"`
	BytesMoved  int64      `json:"bytes_moved"`
	Retries     int        `json:"retries"`      // reconnect/redial attempts beyond the first
	AppRestarts int        `json:"app_restarts"` // contexts rebuilt after app-kill reaping
	Ops         []OpRecord `json:"ops,omitempty"`
}

// ProbeResult summarizes the control-port prober: dial-handshake
// latency on a second port, not the attacked one, measured only
// while attack windows were open.
type ProbeResult struct {
	Dials int     `json:"dials"`
	Fails int     `json:"fails"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// AssertionResult is one machine-checked postcondition.
type AssertionResult struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// ServiceSnapshot is one service's robustness counters at run end.
type ServiceSnapshot struct {
	Name string `json:"name"`
	tas.ServiceStats
	Restarts uint64 `json:"slowpath_restarts"`
}

// Report is the structured result of one scenario run. The Timeline's
// scheduled fields, the per-op payload digests, and the pass/fail
// outcome are seed-deterministic; wall timings and raw counters are
// measured. DeterministicDigest hashes exactly the reproducible part.
type Report struct {
	Scenario    string    `json:"scenario"`
	Description string    `json:"description,omitempty"`
	Seed        int64     `json:"seed"`
	StartedAt   time.Time `json:"started_at"`
	WallMS      float64   `json:"wall_ms"`
	Pass        bool      `json:"pass"`

	Timeline   []EventRecord     `json:"timeline"`
	Workload   WorkloadResult    `json:"workload"`
	Assertions []AssertionResult `json:"assertions"`

	RecoveryMS float64 `json:"recovery_ms"` // last timeline event end -> workload completion

	// Adversarial-traffic results: spoofed segments injected by attack
	// windows, and the striping prober's latency summary.
	SynsSent int64        `json:"syns_sent,omitempty"`
	Probe    *ProbeResult `json:"probe,omitempty"`

	Server  ServiceSnapshot   `json:"server"`
	Clients []ServiceSnapshot `json:"clients"`
	Fabric  tas.FabricStats   `json:"fabric"` // what the network did to the run

	// Metrics is the server's telemetry registry at run end (opt-in via
	// RunOptions.Metrics); FlightFlows counts flows the flight recorder
	// retired or still tracks.
	Metrics     []telemetry.Sample `json:"metrics,omitempty"`
	FlightFlows int                `json:"flight_flows,omitempty"`

	// TimeSeries is the server's recorded registry trajectory — latency
	// quantiles, ring depths, and counters sampled every 100ms across
	// the fault timeline. Measured, so excluded from the deterministic
	// projection by construction.
	TimeSeries *telemetry.SeriesDump `json:"time_series,omitempty"`
}

// WriteJSON writes the full report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// deterministic is the seed-reproducible projection of a report: two
// runs of the same spec with the same seed must produce byte-identical
// serializations of this struct.
type deterministic struct {
	Scenario  string   `json:"scenario"`
	Seed      int64    `json:"seed"`
	Timeline  []detEvt `json:"timeline"`
	Expected  int      `json:"expected"`
	Completed int      `json:"completed"`
	Ops       []detOp  `json:"ops"`
	Asserts   []detAs  `json:"asserts"`
	Pass      bool     `json:"pass"`
}

type detEvt struct {
	AtMS   float64 `json:"at_ms"`
	Kind   string  `json:"kind"`
	Target string  `json:"target,omitempty"`
}

type detOp struct {
	Client, Worker, Op int
	SHA                string
	Bytes              int
	Done, Intact       bool
}

type detAs struct {
	Name string
	Pass bool
}

// Deterministic returns the canonical JSON of the report's reproducible
// projection, and DeterministicDigest its SHA-256 — the value the
// determinism regression diffs across same-seed runs.
func (r *Report) Deterministic() []byte {
	d := deterministic{
		Scenario:  r.Scenario,
		Seed:      r.Seed,
		Expected:  r.Workload.Expected,
		Completed: r.Workload.Completed,
		Pass:      r.Pass,
	}
	for _, e := range r.Timeline {
		d.Timeline = append(d.Timeline, detEvt{AtMS: e.AtMS, Kind: e.Kind, Target: e.Target})
	}
	ops := append([]OpRecord(nil), r.Workload.Ops...)
	slices.SortFunc(ops, func(a, b OpRecord) int {
		return cmp.Or(cmp.Compare(a.Client, b.Client), cmp.Compare(a.Worker, b.Worker), cmp.Compare(a.Op, b.Op))
	})
	for _, o := range ops {
		d.Ops = append(d.Ops, detOp{
			Client: o.Client, Worker: o.Worker, Op: o.Op,
			SHA: o.SHA, Bytes: o.Bytes, Done: o.Done, Intact: o.Intact,
		})
	}
	for _, a := range r.Assertions {
		d.Asserts = append(d.Asserts, detAs{Name: a.Name, Pass: a.Pass})
	}
	b, _ := json.Marshal(d)
	return b
}

// DeterministicDigest hashes the reproducible projection.
func (r *Report) DeterministicDigest() string {
	sum := sha256.Sum256(r.Deterministic())
	return hex.EncodeToString(sum[:])
}

// Summary renders a short human-readable result.
func (r *Report) Summary() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	out := fmt.Sprintf("scenario %-24s seed=%-4d %s  (%.0fms wall, %d/%d ops, %d timeline events)\n",
		r.Scenario, r.Seed, verdict, r.WallMS, r.Workload.Completed, r.Workload.Expected, len(r.Timeline))
	for _, a := range r.Assertions {
		mark := "ok  "
		if !a.Pass {
			mark = "FAIL"
		}
		out += fmt.Sprintf("  %s %-20s %s\n", mark, a.Name, a.Detail)
	}
	return out
}
