// Package scenario is the declarative chaos scenario engine: a Spec
// (read from JSON, or written as a Go literal of the same shape)
// describing topology, a time-stamped link-impairment schedule, a
// workload mix, a fault timeline reusing the app / slow-path /
// fast-path-core fault harnesses, and machine-checkable assertions. An
// executor runs a scenario against the live fabric deterministically
// from a seed and emits a structured JSON run report; a library of named
// scenarios and a minimal HTTP API make runs launchable and inspectable.
// It is the platform that replaces hand-coded chaos tests.
//
// Each impairment, fault, attack, workload and assertion kind is one
// entry in its family's table (impair.go, fault.go, attack.go,
// workload.go, assert.go): what Validate checks, what the run does, and
// what it reports. Validate, normalize and evaluate loop over them.
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

// check is nil when ok holds, else the SpecError the rest describes: a
// kind's validator that is one rule.
func check(ok bool, class error, field, format string, args ...any) error {
	if ok {
		return nil
	}
	return specErr(class, field, format, args...)
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

// fill applies defaults in place (called by Validate once the workload
// kind is known).
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
}

// clientIndex parses a "clientK" host name; ok is false for any other
// name, "server" included.
func clientIndex(name string) (k int, ok bool) {
	if _, err := fmt.Sscanf(name, "client%d", &k); err != nil || k < 0 {
		return 0, false
	}
	return k, fmt.Sprintf("client%d", k) == name
}

// validHost reports whether name is a host of this topology: "server"
// or client0..clientN-1.
func (s *Spec) validHost(name string) bool {
	k, ok := clientIndex(name)
	return name == "server" || ok && k < s.Topology.Clients
}

// checkAt is the timeline rule every family shares: an entry's offset
// is non-negative and no earlier than the entry before it.
func checkAt(field func(string) string, at Duration, last *Duration, what string) error {
	if at < 0 {
		return specErr(ErrTimeline, field("at"), "negative offset %v", at.D())
	}
	if at < *last {
		return specErr(ErrTimeline, field("at"),
			"out of order: %v after an entry at %v (sort the %s by at)", at.D(), last.D(), what)
	}
	*last = at
	return nil
}

// Validate fills defaults and checks the whole spec; the first problem
// found is returned as a typed *SpecError. A nil return guarantees the
// executor can run the scenario without re-checking shapes.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return specErr(ErrBadSpec, "name", "scenario needs a name")
	}
	if err := s.Workload.fill(); err != nil {
		return err
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
	for _, check := range []func() error{
		s.Workload.validate, s.validateImpairments, s.validateFaults, s.validateAttacks, s.validateAssertions,
	} {
		if err := check(); err != nil {
			return err
		}
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
