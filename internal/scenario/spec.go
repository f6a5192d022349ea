// Package scenario is the declarative chaos scenario engine: a JSON
// scenario format (with a Go builder API) describing topology, a
// time-stamped link-impairment schedule, a workload mix, a fault
// timeline reusing the app / slow-path / fast-path-core fault
// harnesses, and machine-checkable assertions. An executor runs a
// scenario against the live fabric deterministically from a seed and
// emits a structured JSON run report; a registry of named library
// scenarios and a minimal HTTP API make runs launchable and
// inspectable. It is the platform that replaces hand-coded chaos tests.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	tas "repro"
	"repro/internal/config"
	"repro/internal/resource"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("150ms") and unmarshals from either a string or nanoseconds.
type Duration time.Duration

// D converts for callers.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150ms" or a bare number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// Spec is one declarative chaos scenario.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Seed drives every random decision in the run: impairment loss
	// processes, workload payload contents, and backoff jitter. Two runs
	// with the same spec and seed produce the same fault/impairment
	// timeline and payload set.
	Seed int64 `json:"seed"`

	// Duration caps the whole run; a workload that has not completed by
	// then is declared incomplete (default 30s).
	Duration Duration `json:"duration,omitempty"`

	Topology    Topology     `json:"topology"`
	Link        *LinkSpec    `json:"link,omitempty"`
	Impairments []Impairment `json:"impairments,omitempty"`
	Faults      []FaultEvent `json:"faults,omitempty"`
	Attacks     []Attack     `json:"attacks,omitempty"`
	Workload    Workload     `json:"workload"`
	Assert      Assertions   `json:"assert"`
}

// Topology sizes the service mesh under test — one server plus N client
// services on an in-process fabric — and configures it: its other keys
// are tas.Config's knobs. A zero knob takes chaosDefaults' value where
// there is one, else the service default; clients run the server's
// configuration minus its server-side settings (clientConfig).
type Topology struct {
	Clients     int `json:"clients,omitempty"`      // client services (default 1)
	ServerCores int `json:"server_cores,omitempty"` // server fast-path cores (default 2)
	ClientCores int `json:"client_cores,omitempty"` // client fast-path cores (default 2)

	tas.Config
}

// UnmarshalJSON decodes a topology strictly, accepting each duration
// knob as a Go duration string ("25ms") or integer nanoseconds, like
// every other spec duration.
func (t *Topology) UnmarshalJSON(b []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(t.Config)) {
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if v, ok := raw[key]; ok && f.Type == reflect.TypeOf(time.Duration(0)) {
			var d Duration
			if err := d.UnmarshalJSON(v); err != nil {
				return fmt.Errorf("topology.%s: %w", key, err)
			}
			raw[key], _ = json.Marshal(int64(d))
		}
	}
	b, _ = json.Marshal(raw)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	type plain Topology // no UnmarshalJSON: decode the fields themselves
	return dec.Decode((*plain)(t))
}

// LinkSpec installs the fabric's netem-grade link model for the run:
// transmission (rate), bounded queueing, and propagation delay modeled
// separately, so impairment sweeps degrade congestion-limited instead
// of hitting receiver-limited cliffs.
type LinkSpec struct {
	RateMbps  float64  `json:"rate_mbps"`
	QueuePkts int      `json:"queue_pkts,omitempty"` // default 256
	Delay     Duration `json:"delay,omitempty"`      // propagation delay
	ECNPkts   int      `json:"ecn_pkts,omitempty"`   // CE-mark threshold (0 = off)
}

// Impairment kinds.
const (
	ImpLoss      = "loss"       // uniform loss at Rate probability
	ImpBurstLoss = "burst-loss" // Gilbert–Elliott burst loss (GE params)
	ImpClearLoss = "clear-loss" // remove uniform and burst loss
	ImpPartition = "partition"  // block the A<->B host pair
	ImpHeal      = "heal"       // heal A<->B (or everything if unset)
	ImpLinkDown  = "link-down"  // take Host's link down
	ImpLinkUp    = "link-up"    // bring Host's link back
	ImpFlap      = "flap"       // Count down/up cycles on Host (Down/Up periods)
	ImpDelay     = "delay"      // set propagation delay to Delay
	ImpRate      = "rate"       // set link rate to Rate Mbps (needs link model)
)

// GESpec parameterizes burst loss (see stats.GEConfig).
type GESpec struct {
	PGoodToBad float64 `json:"p_good_to_bad"`
	PBadToGood float64 `json:"p_bad_to_good"`
	LossGood   float64 `json:"loss_good"`
	LossBad    float64 `json:"loss_bad"`
}

// Impairment is one time-stamped link-schedule entry. Entries must be
// ordered by At.
type Impairment struct {
	At   Duration `json:"at"`
	Kind string   `json:"kind"`

	Rate  float64  `json:"rate,omitempty"`  // loss probability or Mbps (ImpRate)
	GE    *GESpec  `json:"ge,omitempty"`    // burst-loss parameters
	A     string   `json:"a,omitempty"`     // partition endpoint ("server", "client0", ...)
	B     string   `json:"b,omitempty"`     // partition endpoint
	Host  string   `json:"host,omitempty"`  // link-down/up/flap target
	Delay Duration `json:"delay,omitempty"` // ImpDelay value

	// Flap expansion (ImpFlap): Count down/up cycles, each Down long,
	// separated by Up of healthy link.
	Count int      `json:"count,omitempty"`
	Down  Duration `json:"down,omitempty"`
	Up    Duration `json:"up,omitempty"`
}

// Fault kinds: the three failure domains' harnesses.
const (
	FaultAppKill  = "app-kill"  // stop a workload context's heartbeat for good
	FaultAppStall = "app-stall" // suppress the heartbeat for For

	FaultSlowKill    = "slowpath-kill"    // crash the slow path
	FaultSlowStall   = "slowpath-stall"   // wedge the slow path for For
	FaultSlowPanic   = "slowpath-panic"   // contained panic in the control loop
	FaultSlowRestart = "slowpath-restart" // warm restart from shared state

	FaultCoreKill   = "core-kill"   // crash fast-path core Core (-1 = busiest)
	FaultCoreStall  = "core-stall"  // wedge core Core for For
	FaultCorePanic  = "core-panic"  // contained panic on core Core
	FaultCoreRevive = "core-revive" // relaunch a crashed core
)

// FaultEvent is one time-stamped fault-timeline entry. Entries must be
// ordered by At, and entries targeting the same unit (same target
// service, fault domain, and index) must not overlap in [At, At+For).
type FaultEvent struct {
	At     Duration `json:"at"`
	Kind   string   `json:"kind"`
	Target string   `json:"target,omitempty"` // "server" (default) or "clientK"
	App    int      `json:"app,omitempty"`    // workload worker index (app faults, client targets only)
	Core   int      `json:"core,omitempty"`   // core index (core faults; -1 = busiest at fire time)
	For    Duration `json:"for,omitempty"`    // stall duration
}

// Attack kinds.
const (
	AttackSynFlood = "syn-flood" // spoofed SYNs at Rate pps against Port
)

// Attack is one time-stamped adversarial-traffic window: a raw packet
// source on the fabric forges segments with spoofed source addresses
// (replies route nowhere, as for a real blind attacker). Entries must
// be ordered by At. While any attack window is open, the executor's
// control-port prober (see Assertions.ProbeP99) measures handshake
// latency on a port striped away from the attacked one.
type Attack struct {
	At   Duration `json:"at"`
	For  Duration `json:"for"`            // attack window length
	Kind string   `json:"kind"`           // "syn-flood"
	Rate int      `json:"rate,omitempty"` // packets/sec (default 50000)
	Port uint16   `json:"port,omitempty"` // target port (default: the workload port)
}

// Workload kinds.
const (
	WorkStream = "stream" // length-prefixed bulk transfers, SHA-256 verified end to end
	WorkRPC    = "rpc"    // fixed-size echo RPCs
)

// Workload describes the traffic mix every client service generates
// against the server.
type Workload struct {
	Kind  string `json:"kind"`            // "stream" or "rpc"
	Conns int    `json:"conns,omitempty"` // concurrent workers per client (default 1)

	// Stream parameters.
	TransferBytes int  `json:"transfer_bytes,omitempty"` // bytes per transfer (default 128 KiB)
	Transfers     int  `json:"transfers,omitempty"`      // transfers per worker (default 1)
	Reconnect     bool `json:"reconnect,omitempty"`      // new connection per transfer (churn)
	ChunkBytes    int  `json:"chunk_bytes,omitempty"`    // write granularity (default 16 KiB)

	// RPC parameters.
	MsgBytes     int `json:"msg_bytes,omitempty"`      // request/response size (default 128)
	Calls        int `json:"calls,omitempty"`          // total calls per worker (default 100)
	CallsPerConn int `json:"calls_per_conn,omitempty"` // reconnect after this many (default Calls: no churn)

	// Stream server misbehavior (zero-window scenarios): ServerStall
	// makes the stream server stop reading for this long after it has
	// consumed a connection's first length header, so the sender fills
	// the receive buffer and wedges against a zero window.
	// StallFirstConnOnly restricts the stall to the first connection
	// the server accepts, so a sender that gives the wedged peer up
	// lands its retry on a healthy handler.
	ServerStall        Duration `json:"server_stall,omitempty"`
	StallFirstConnOnly bool     `json:"stall_first_conn_only,omitempty"`
}

// Assertions are the machine-checkable postconditions of a run. Zero
// values disable a check, except Intact/AllComplete which must be opted
// into explicitly.
type Assertions struct {
	// Intact requires every completed transfer/call to be content-
	// verified (SHA-256 digests for streams, echo comparison for RPC).
	Intact bool `json:"intact,omitempty"`

	// AllComplete requires every scheduled transfer/call to finish
	// within the run duration.
	AllComplete bool `json:"all_complete,omitempty"`

	// MaxRecovery bounds the time from the end of the last scheduled
	// timeline event to workload completion.
	MaxRecovery Duration `json:"max_recovery,omitempty"`

	// MinFlowsMigrated / MinCoreFailures / MinAppsReaped assert the
	// fault machinery actually engaged.
	MinFlowsMigrated int `json:"min_flows_migrated,omitempty"`
	MinCoreFailures  int `json:"min_core_failures,omitempty"`
	MinAppsReaped    int `json:"min_apps_reaped,omitempty"`

	// RequireDegraded asserts the fast path observed at least one
	// slow-path outage (degraded mode engaged).
	RequireDegraded bool `json:"require_degraded,omitempty"`

	// MaxServerAborts bounds flows the server aborted on retry-budget
	// exhaustion (-1 = unbounded; 0 means "none allowed" only when
	// BoundServerAborts is set).
	MaxServerAborts   int  `json:"max_server_aborts,omitempty"`
	BoundServerAborts bool `json:"bound_server_aborts,omitempty"`

	// DropCauses bounds server drop counters by cause name (the
	// tas_drops_total causes, e.g. "bad_desc": 0).
	DropCauses map[string]uint64 `json:"drop_causes,omitempty"`

	// MinCookiesValidated requires the server to have reconstructed at
	// least n connections from SYN-cookie ACKs (proof the stateless
	// path, not the stateful one, carried handshakes during a flood).
	MinCookiesValidated int `json:"min_cookies_validated,omitempty"`

	// ProbeP99 enables the control-port prober and bounds its p99 dial
	// latency during attack windows: handshakes on a port striped away
	// from the attacked one must stay fast while the flood runs.
	ProbeP99 Duration `json:"probe_p99,omitempty"`

	// RttP99Under bounds the server's p99 smoothed RTT over the whole
	// run, evaluated against the report's embedded telemetry time
	// series (the max of the tas_rtt_us{quantile="0.99"} trajectory) —
	// latency over time across the fault timeline, not just end state.
	RttP99Under Duration `json:"rtt_p99_under,omitempty"`

	// MinPressureLevel requires the server's resource-governor
	// degradation ladder to have reached at least this rung during the
	// run (1 cookies, 2 shed-syn, 3 clamp-tx, 4 reclaim) — proof the
	// pressure machinery actually engaged.
	MinPressureLevel int `json:"min_pressure_level,omitempty"`

	// MinPersistProbes requires at least n zero-window (persist timer)
	// probes transmitted across all services — proof senders rode the
	// persist timer through receiver-limited stalls instead of burning
	// their retransmission budgets.
	MinPersistProbes int `json:"min_persist_probes,omitempty"`

	// MinPeerDead requires at least n flows across all services to have
	// been aborted with a peer-dead verdict (persist-probe or keepalive
	// budget exhaustion).
	MinPeerDead int `json:"min_peer_dead,omitempty"`

	// MaxPeerDead bounds peer-dead verdicts across all services (0 means
	// "none allowed" only when BoundPeerDead is set): a scenario where
	// every stall resolves must never misclassify a slow peer as dead.
	MaxPeerDead   int  `json:"max_peer_dead,omitempty"`
	BoundPeerDead bool `json:"bound_peer_dead,omitempty"`

	// NoReaperFired asserts silent peers were detected by the liveness
	// machinery itself: no app context reaped and no flow LRU
	// idle-reclaimed on any service during the run.
	NoReaperFired bool `json:"no_reaper_fired,omitempty"`

	// MaxPoolUsed bounds the server's governed-pool occupancy at the
	// end of the run, by pool name (payload_bytes, flows, half_open,
	// contexts, timers, accept, time_wait). The executor gives teardown effects a
	// settle window (FIN sweeps, idle reclamation run on control ticks)
	// before declaring a pool leaked; a bound of 0 asserts the pool
	// returns exactly to empty.
	MaxPoolUsed map[string]int64 `json:"max_pool_used,omitempty"`
}

// --- Typed validation errors -----------------------------------------

// Sentinel error classes; every validation failure wraps exactly one,
// so callers can errors.Is-classify rejections.
var (
	ErrBadSpec         = errors.New("scenario: invalid spec")
	ErrUnknownKind     = errors.New("scenario: unknown kind")
	ErrOutOfRange      = errors.New("scenario: index out of range")
	ErrTimeline        = errors.New("scenario: bad timeline")
	ErrUnknownScenario = errors.New("scenario: unknown scenario")
)

// SpecError is a validation failure pinned to a spec field.
type SpecError struct {
	Field string // dotted path, e.g. "faults[2].core"
	Err   error  // wraps one of the sentinel classes
	Msg   string
}

// Error renders "field: msg (class)".
func (e *SpecError) Error() string {
	return fmt.Sprintf("scenario: %s: %s", e.Field, e.Msg)
}

// Unwrap exposes the sentinel class for errors.Is.
func (e *SpecError) Unwrap() error { return e.Err }

func specErr(class error, field, format string, args ...any) error {
	return &SpecError{Field: field, Err: class, Msg: fmt.Sprintf(format, args...)}
}

// --- Parsing ----------------------------------------------------------

// ParseSpec decodes and validates a JSON scenario. Unknown fields are
// rejected (strict decoding), and every timeline/index error is a typed
// *SpecError — nothing executes before the spec is proven well-formed.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// JSON renders the spec canonically.
func (s *Spec) JSON() []byte {
	b, _ := json.MarshalIndent(s, "", "  ")
	return b
}

// fill applies defaults in place (called by Validate).
func (s *Spec) fill() {
	if s.Duration <= 0 {
		s.Duration = Duration(30 * time.Second)
	}
	if s.Topology.Clients <= 0 {
		s.Topology.Clients = 1
	}
	if s.Topology.ServerCores <= 0 {
		s.Topology.ServerCores = 2
	}
	if s.Topology.ClientCores <= 0 {
		s.Topology.ClientCores = 2
	}
	for i := range s.Attacks {
		if s.Attacks[i].Rate == 0 {
			s.Attacks[i].Rate = 50000
		}
	}
	w := &s.Workload
	if w.Conns <= 0 {
		w.Conns = 1
	}
	switch w.Kind {
	case WorkStream:
		if w.TransferBytes <= 0 {
			w.TransferBytes = 128 << 10
		}
		if w.Transfers <= 0 {
			w.Transfers = 1
		}
		if w.ChunkBytes <= 0 {
			w.ChunkBytes = 16 << 10
		}
	case WorkRPC:
		if w.MsgBytes <= 0 {
			w.MsgBytes = 128
		}
		if w.Calls <= 0 {
			w.Calls = 100
		}
		if w.CallsPerConn <= 0 || w.CallsPerConn > w.Calls {
			w.CallsPerConn = w.Calls
		}
	}
}

// hostNames returns the valid host-name vocabulary for this topology.
func (s *Spec) validHost(name string) bool {
	if name == "server" {
		return true
	}
	var k int
	if _, err := fmt.Sscanf(name, "client%d", &k); err != nil {
		return false
	}
	return fmt.Sprintf("client%d", k) == name && k >= 0 && k < s.Topology.Clients
}

// Validate fills defaults and checks the whole spec; the first problem
// found is returned as a typed *SpecError. A nil return guarantees the
// executor can run the scenario without re-checking shapes.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return specErr(ErrBadSpec, "name", "scenario needs a name")
	}
	if s.Workload.Kind != WorkStream && s.Workload.Kind != WorkRPC {
		return specErr(ErrUnknownKind, "workload.kind", "unknown workload kind %q (want %q or %q)",
			s.Workload.Kind, WorkStream, WorkRPC)
	}
	s.fill()

	if s.Link != nil && s.Link.RateMbps <= 0 {
		return specErr(ErrBadSpec, "link.rate_mbps", "link model needs a positive rate, got %v", s.Link.RateMbps)
	}

	// The service's own check, so a config the server would refuse fails
	// at parse time instead of mid-run.
	if err := s.Topology.Validate(); err != nil {
		class := ErrBadSpec
		if errors.Is(err, config.ErrUnknownName) {
			class = ErrUnknownKind
		}
		return specErr(class, "topology", "%v", err)
	}
	w := s.Workload
	if w.ServerStall < 0 {
		return specErr(ErrBadSpec, "workload.server_stall", "negative stall %v", w.ServerStall.D())
	}
	if w.ServerStall > 0 && w.Kind != WorkStream {
		return specErr(ErrBadSpec, "workload.server_stall", "server stalls apply to stream workloads only")
	}
	if w.StallFirstConnOnly && w.ServerStall == 0 {
		return specErr(ErrBadSpec, "workload.stall_first_conn_only", "needs a positive server_stall")
	}

	if err := s.validateImpairments(); err != nil {
		return err
	}
	if err := s.validateFaults(); err != nil {
		return err
	}
	if err := s.validateAttacks(); err != nil {
		return err
	}
	if err := s.validateAssertions(); err != nil {
		return err
	}
	return nil
}

func (s *Spec) validateAttacks() error {
	var last Duration = -1
	for i, a := range s.Attacks {
		field := func(sub string) string { return fmt.Sprintf("attacks[%d].%s", i, sub) }
		if a.Kind != AttackSynFlood {
			return specErr(ErrUnknownKind, field("kind"), "unknown attack kind %q", a.Kind)
		}
		if a.At < 0 {
			return specErr(ErrTimeline, field("at"), "negative offset %v", a.At.D())
		}
		if a.At < last {
			return specErr(ErrTimeline, field("at"),
				"out of order: %v after an entry at %v (sort the schedule by at)", a.At.D(), last.D())
		}
		last = a.At
		if a.For <= 0 {
			return specErr(ErrBadSpec, field("for"), "attack window needs a positive duration")
		}
		if a.Rate < 0 {
			return specErr(ErrBadSpec, field("rate"), "negative rate %d", a.Rate)
		}
	}
	return nil
}

func (s *Spec) validateImpairments() error {
	var last Duration = -1
	for i, imp := range s.Impairments {
		field := func(sub string) string { return fmt.Sprintf("impairments[%d].%s", i, sub) }
		if imp.At < 0 {
			return specErr(ErrTimeline, field("at"), "negative offset %v", imp.At.D())
		}
		if imp.At < last {
			return specErr(ErrTimeline, field("at"),
				"out of order: %v after an entry at %v (sort the schedule by at)", imp.At.D(), last.D())
		}
		last = imp.At
		switch imp.Kind {
		case ImpLoss:
			if imp.Rate < 0 || imp.Rate >= 1 {
				return specErr(ErrBadSpec, field("rate"), "loss probability %v outside [0,1)", imp.Rate)
			}
		case ImpBurstLoss:
			if imp.GE == nil {
				return specErr(ErrBadSpec, field("ge"), "burst-loss needs ge parameters")
			}
		case ImpClearLoss, ImpHeal:
			// no parameters
		case ImpPartition:
			if !s.validHost(imp.A) || !s.validHost(imp.B) {
				return specErr(ErrOutOfRange, field("a"),
					"partition endpoints %q/%q must name server or client0..client%d",
					imp.A, imp.B, s.Topology.Clients-1)
			}
		case ImpLinkDown, ImpLinkUp:
			if !s.validHost(imp.Host) {
				return specErr(ErrOutOfRange, field("host"), "unknown host %q", imp.Host)
			}
		case ImpFlap:
			if !s.validHost(imp.Host) {
				return specErr(ErrOutOfRange, field("host"), "unknown host %q", imp.Host)
			}
			if imp.Count <= 0 || imp.Down <= 0 || imp.Up < 0 {
				return specErr(ErrBadSpec, field("count"),
					"flap needs count>0, down>0, up>=0 (got count=%d down=%v up=%v)",
					imp.Count, imp.Down.D(), imp.Up.D())
			}
		case ImpDelay:
			if imp.Delay < 0 {
				return specErr(ErrBadSpec, field("delay"), "negative delay %v", imp.Delay.D())
			}
		case ImpRate:
			if s.Link == nil {
				return specErr(ErrBadSpec, field("kind"), "rate impairment needs the link model (spec.link)")
			}
			if imp.Rate <= 0 {
				return specErr(ErrBadSpec, field("rate"), "rate must be positive Mbps, got %v", imp.Rate)
			}
		default:
			return specErr(ErrUnknownKind, field("kind"), "unknown impairment kind %q", imp.Kind)
		}
	}
	return nil
}

// faultUnit identifies the unit a fault acts on, for overlap checking.
type faultUnit struct {
	target string
	domain string // "app", "slow", "core"
	index  int
}

func (s *Spec) validateFaults() error {
	var last Duration = -1
	busyUntil := make(map[faultUnit]Duration)
	for i, f := range s.Faults {
		field := func(sub string) string { return fmt.Sprintf("faults[%d].%s", i, sub) }
		if f.At < 0 {
			return specErr(ErrTimeline, field("at"), "negative offset %v", f.At.D())
		}
		if f.At < last {
			return specErr(ErrTimeline, field("at"),
				"out of order: %v after an entry at %v (sort the timeline by at)", f.At.D(), last.D())
		}
		last = f.At

		target := f.Target
		if target == "" {
			target = "server"
		}
		if !s.validHost(target) {
			return specErr(ErrOutOfRange, field("target"), "unknown target %q", target)
		}

		var unit faultUnit
		switch f.Kind {
		case FaultAppKill, FaultAppStall:
			if target == "server" {
				return specErr(ErrBadSpec, field("target"),
					"app faults target client workload contexts; server handler contexts are dynamic")
			}
			if f.App < 0 || f.App >= s.Workload.Conns {
				return specErr(ErrOutOfRange, field("app"),
					"app %d outside the client's %d workload workers", f.App, s.Workload.Conns)
			}
			unit = faultUnit{target, "app", f.App}
		case FaultSlowKill, FaultSlowStall, FaultSlowPanic, FaultSlowRestart:
			unit = faultUnit{target, "slow", 0}
		case FaultCoreKill, FaultCoreStall, FaultCorePanic, FaultCoreRevive:
			cores := s.Topology.ServerCores
			if target != "server" {
				cores = s.Topology.ClientCores
			}
			if f.Core != -1 && (f.Core < 0 || f.Core >= cores) {
				return specErr(ErrOutOfRange, field("core"),
					"core %d outside %s's %d fast-path cores (-1 = busiest)", f.Core, target, cores)
			}
			if f.Core == -1 && f.Kind == FaultCoreRevive {
				return specErr(ErrBadSpec, field("core"), "core-revive needs an explicit core index")
			}
			unit = faultUnit{target, "core", f.Core}
		default:
			return specErr(ErrUnknownKind, field("kind"), "unknown fault kind %q", f.Kind)
		}

		if f.For < 0 {
			return specErr(ErrBadSpec, field("for"), "negative duration %v", f.For.D())
		}
		stallKind := f.Kind == FaultAppStall || f.Kind == FaultSlowStall || f.Kind == FaultCoreStall
		if stallKind && f.For == 0 {
			return specErr(ErrBadSpec, field("for"), "%s needs a positive duration", f.Kind)
		}
		if !stallKind && f.For != 0 {
			return specErr(ErrBadSpec, field("for"), "%s takes no duration", f.Kind)
		}

		if until, ok := busyUntil[unit]; ok && f.At < until {
			return specErr(ErrTimeline, field("at"),
				"overlaps the previous fault on %s/%s[%d] (busy until %v)",
				unit.target, unit.domain, unit.index, until.D())
		}
		end := f.At + f.For
		if end == f.At {
			end++ // instantaneous events still occupy their instant
		}
		busyUntil[unit] = end
	}
	return nil
}

// sortedKeys returns m's keys in order, so checks and reports that walk
// a map are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// knownPool reports whether name is one of the governor's pools.
func knownPool(name string) bool {
	for p := resource.Pool(0); p < resource.NumPools; p++ {
		if p.String() == name {
			return true
		}
	}
	return false
}

func (s *Spec) validateAssertions() error {
	a := &s.Assert
	for _, c := range sortedKeys(a.DropCauses) {
		if _, ok := (tas.ServiceStats{}).Drop(c); !ok {
			return specErr(ErrUnknownKind, "assert.drop_causes", "unknown drop cause %q", c)
		}
	}
	for _, p := range sortedKeys(a.MaxPoolUsed) {
		if !knownPool(p) {
			return specErr(ErrUnknownKind, "assert.max_pool_used", "unknown pool %q", p)
		}
		if a.MaxPoolUsed[p] < 0 {
			return specErr(ErrBadSpec, "assert.max_pool_used", "negative bound for pool %q", p)
		}
	}
	if a.MinPressureLevel < 0 || a.MinPressureLevel >= resource.NumLevels {
		return specErr(ErrOutOfRange, "assert.min_pressure_level",
			"pressure level %d outside [0,%d]", a.MinPressureLevel, resource.NumLevels-1)
	}
	if a.MaxRecovery < 0 {
		return specErr(ErrBadSpec, "assert.max_recovery", "negative bound %v", a.MaxRecovery.D())
	}
	if a.MinPersistProbes < 0 || a.MinPeerDead < 0 || a.MaxPeerDead < 0 {
		return specErr(ErrBadSpec, "assert.min_persist_probes", "negative peer-liveness bound")
	}
	if a.RttP99Under < 0 {
		return specErr(ErrBadSpec, "assert.rtt_p99_under", "negative bound %v", a.RttP99Under.D())
	}
	return nil
}

// ExpectedOps returns the total operations the workload schedules
// (transfers for streams, calls for RPC) across all clients.
func (s *Spec) ExpectedOps() int {
	w := s.Workload
	per := w.Transfers
	if w.Kind == WorkRPC {
		per = w.Calls
	}
	return s.Topology.Clients * w.Conns * per
}
