// Package config declares every knob of a TAS service once: one field,
// one doc comment, one JSON key, one default in Fill and one range check
// in Validate. tas.Config, slowpath.Config and fastpath.Config are
// aliases of Config, so each layer reads the knobs it needs from the
// value the facade validated and filled, and the scenario topology embeds
// it instead of mirroring it.
//
// A zero knob means its default. Where a knob can be switched off,
// negative means off; everywhere else Validate rejects negatives.
//
// Knobs without a JSON key are not scenario-spec keys: the scenario
// engine sets them itself (core counts per role, chaos timers,
// telemetry) or no scenario needs them.
package config

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/congestion"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// SYN-cookie modes (Config.SynCookies).
const (
	// SynCookiesAuto engages cookies per listener while it is under
	// pressure: half-open occupancy at half the backlog, or SYN arrival
	// rate above SynRateThreshold.
	SynCookiesAuto = ""
	// SynCookiesAlways answers every SYN statelessly.
	SynCookiesAlways = "always"
	// SynCookiesOff disables cookies; overload falls back to shedding.
	SynCookiesOff = "off"
)

// defaultLinkBps is the link rate congestion control is calibrated to
// when the fabric has no link model: the paper's 40 Gbit/s server NIC.
const defaultLinkBps = 40e9

// ErrUnknownName marks a rejected name-valued knob (CongestionControl,
// SynCookies), as opposed to an out-of-range number.
var ErrUnknownName = errors.New("config: unknown name")

// Config parameterizes one TAS service: fast path, slow path, governor
// and telemetry.
type Config struct {
	// Wiring, set by tas.NewService (or by a test assembling the layers
	// by hand), never by a user of the facade.
	LocalIP  protocol.IPv4 `json:"-"`
	LocalMAC protocol.MAC  `json:"-"`
	// Gov is the unified resource governor (nil = ungoverned). Every pool
	// is charged to it; only capped pools can deny admission or raise the
	// degradation ladder. It outlives a slow-path instance: a warm
	// restart reconciles the pools whose entries died with its
	// predecessor.
	Gov *resource.Governor `json:"-"`
	// NewController builds the per-flow congestion controller. Nil: Fill
	// resolves CongestionControl at defaultLinkBps (tas.NewService
	// resolves it at the fabric's link-model rate instead).
	NewController func() congestion.RateController `json:"-"`

	// MaxCores is the number of fast-path cores created (default 2). The
	// slow path scales the active count with load unless
	// DisableCoreScaling is set.
	MaxCores int `json:"-"`

	// DisableCoreScaling pins every one of MaxCores active (core-fault
	// scenarios need it, so kills hit live cores).
	DisableCoreScaling bool `json:"disable_core_scaling,omitempty"`

	// RxRingSize is each core's NIC receive ring in packets (default 2048).
	RxRingSize int `json:"-"`

	// SlowPathTimeout is how long the slow-path heartbeat may go stale
	// before the fast path enters degraded mode: established flows keep
	// transferring, but new SYNs are shed and Dial/Listen fail fast until
	// a warm restart recovers the control plane. Default 1s; negative
	// disables the watchdog.
	SlowPathTimeout time.Duration `json:"slowpath_timeout,omitempty"`

	// CoreTimeout is how long a fast-path core's heartbeat counter may go
	// without advancing before the slow path declares the core failed:
	// its RSS buckets move to survivors, its flows are migrated, and
	// packets stranded in its queues are requeued; a revived core is
	// folded back in after clean heartbeats. Default 500ms; negative
	// disables the core watchdog. Values below 250ms are floored there:
	// even an idle healthy core only advances its counter every
	// blocked-wakeup period (~100ms).
	CoreTimeout time.Duration `json:"core_timeout,omitempty"`

	// ChallengeAckPerSec bounds RFC 5961 challenge ACKs per second across
	// the whole service — slow path and every core share one limiter, so
	// the blind-attack defense cannot become an amplifier (default 100;
	// negative disables challenge ACKs).
	ChallengeAckPerSec int `json:"challenge_ack_per_sec,omitempty"`

	// RxBufSize / TxBufSize are the per-connection payload buffer sizes in
	// bytes, fixed at connection creation (§4.1 Limitations). Powers of
	// two; default 256 KiB.
	RxBufSize int `json:"rx_buf_bytes,omitempty"`
	TxBufSize int `json:"tx_buf_bytes,omitempty"`

	// CongestionControl selects the slow-path policy: "dctcp" (rate-based
	// DCTCP, the paper's default), "timely", "dctcp-window" (window-based
	// DCTCP behind the rate bucket, §3.2), or "none" (no rate enforcement).
	CongestionControl string `json:"congestion_control,omitempty"`

	// ControlInterval is the slow-path control loop period τ (default 1ms).
	ControlInterval time.Duration `json:"-"`

	// HandshakeRTO is the initial SYN / SYN-ACK retransmission timeout; it
	// doubles per unanswered attempt (default 250ms).
	HandshakeRTO time.Duration `json:"handshake_rto,omitempty"`

	// HandshakeRetries caps handshake retransmissions before the half-open
	// entry is reaped and an active open fails with a timeout (default 3).
	HandshakeRetries int `json:"-"`

	// MaxRetransmits caps consecutive unproductive retransmission timeouts
	// on an established flow before it is aborted: RST to the peer, flow
	// state torn down, ErrReset to the application (default 6).
	MaxRetransmits int `json:"max_retransmits,omitempty"`

	// PersistRTO is the initial zero-window persist interval: while the
	// peer advertises a zero window and data is pending, the slow path
	// sends one-byte probes at this interval, doubling per unanswered
	// probe (capped at 32×), instead of retransmitting blindly (default
	// 200ms).
	PersistRTO time.Duration `json:"persist_rto,omitempty"`

	// MaxPersistProbes caps consecutive unanswered zero-window probes
	// before the peer is presumed dead and the flow aborted with a
	// peer-dead error (default 8). A probe is answered when the peer
	// reopens its window; duplicate zero-window ACKs keep the count rising.
	MaxPersistProbes int `json:"max_persist_probes,omitempty"`

	// KeepaliveTime enables TCP keepalives: an established flow idle in
	// both directions for this long gets liveness probes. Zero, the
	// default, leaves keepalives off — idle connections are legitimate.
	KeepaliveTime time.Duration `json:"keepalive_time,omitempty"`

	// KeepaliveInterval spaces successive keepalive probes once probing
	// has started (default KeepaliveTime/4, floored at 10ms).
	KeepaliveInterval time.Duration `json:"keepalive_interval,omitempty"`

	// KeepaliveProbes is how many unanswered keepalive probes declare the
	// peer dead: the flow is aborted (RST best-effort) and every resource
	// it held reclaimed (default 3).
	KeepaliveProbes int `json:"keepalive_probes,omitempty"`

	// FinWait2Timeout bounds FIN_WAIT_2: after our FIN is acknowledged the
	// peer has this long to send its own FIN before the flow is quietly
	// reclaimed (default 5s). A crashed peer that acked the FIN but never
	// closes would otherwise pin the flow forever.
	FinWait2Timeout time.Duration `json:"fin_wait2_timeout,omitempty"`

	// TimeWaitDuration is the 2MSL quarantine on the active closer's
	// 4-tuple (default 1s, scaled for an in-process fabric). While
	// quarantined, old duplicates get the RFC 793 re-ACK and the tuple is
	// not picked for new outbound connections; a new SYN above the
	// quarantined flow's final sequence may reuse it early (RFC 6191).
	TimeWaitDuration time.Duration `json:"time_wait,omitempty"`

	// ListenBacklog bounds per-listener admission: half-open handshakes
	// plus not-yet-accepted connections. SYNs beyond it are shed (dropped
	// silently, so well-behaved peers retry). Default 128.
	ListenBacklog int `json:"listen_backlog,omitempty"`

	// SynCookies selects the SYN-cookie mode: SynCookiesAuto, Always or
	// Off. Under cookies the SYN-ACK's initial sequence number is a keyed
	// MAC over the 4-tuple, so a flood costs the slow path no memory and
	// the completing ACK alone reconstructs the connection.
	SynCookies string `json:"syn_cookies,omitempty"`

	// SynRateThreshold is the per-listener SYN arrival rate (SYNs per
	// second) beyond which auto mode engages cookies for about a second
	// (default 512; negative keeps only the occupancy trigger).
	SynRateThreshold int `json:"-"`

	// Resource-governor capacities, per-app quotas and the degradation
	// ladder's watermarks (see resource.Limits). A zero capacity leaves
	// its pool accounted but uncapped; a capped pool refuses admission
	// with backpressure, and occupancy of the hottest one drives the
	// ladder: SYN cookies, then SYN shedding, TX-grant clamping and LRU
	// idle-flow reclamation.
	resource.Limits

	// IdleReclaimAge is how long a flow must sit with no packet or send
	// activity before the ladder's reclaim rung may take it (default 1s).
	// Active transfers are never reclaimed.
	IdleReclaimAge time.Duration `json:"idle_reclaim_age,omitempty"`

	// ReclaimBatch bounds flows reclaimed per control tick while the
	// reclaim rung is engaged (default 32): relief is incremental, not a
	// mass RST storm.
	ReclaimBatch int `json:"reclaim_batch,omitempty"`

	// Telemetry opts into the observability subsystem: a metrics
	// registry, a per-flow flight recorder and per-core cycle accounting.
	// The zero value is off, leaving only nil-pointer checks on the hot
	// paths. fastpath.NewEngine builds the hub; every layer reads it there.
	Telemetry telemetry.Config `json:"-"`
}

// Fill replaces every zero knob with its default, and resolves
// CongestionControl into NewController when that is nil. It is
// idempotent: each layer fills the value it is handed.
func (c *Config) Fill() {
	setDefault(&c.MaxCores, 2)
	setDefault(&c.RxRingSize, 2048)
	setDefault(&c.SlowPathTimeout, time.Second)
	setDefault(&c.CoreTimeout, 500*time.Millisecond)
	if c.CoreTimeout > 0 {
		c.CoreTimeout = max(c.CoreTimeout, 250*time.Millisecond)
	}
	setDefault(&c.ChallengeAckPerSec, 100)
	setDefault(&c.RxBufSize, 256<<10)
	setDefault(&c.TxBufSize, 256<<10)
	setDefault(&c.CongestionControl, "dctcp")
	if c.NewController == nil {
		c.NewController = Controller(c.CongestionControl, defaultLinkBps)
	}
	setDefault(&c.ControlInterval, time.Millisecond)
	setDefault(&c.HandshakeRTO, 250*time.Millisecond)
	setDefault(&c.HandshakeRetries, 3)
	setDefault(&c.MaxRetransmits, 6)
	setDefault(&c.PersistRTO, 200*time.Millisecond)
	setDefault(&c.MaxPersistProbes, 8)
	if c.KeepaliveTime > 0 {
		setDefault(&c.KeepaliveInterval, max(c.KeepaliveTime/4, 10*time.Millisecond))
	}
	setDefault(&c.KeepaliveProbes, 3)
	setDefault(&c.FinWait2Timeout, 5*time.Second)
	setDefault(&c.TimeWaitDuration, time.Second)
	setDefault(&c.ListenBacklog, 128)
	setDefault(&c.SynRateThreshold, 512)
	setDefault(&c.IdleReclaimAge, time.Second)
	setDefault(&c.ReclaimBatch, 32)
}

func setDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

// Validate rejects a configuration no layer can run: a negative value
// where negative does not mean off, a payload buffer size that is not a
// power of two, an unknown congestion-control or SYN-cookie name
// (wrapping ErrUnknownName), and inconsistent governor limits. It reads
// the knobs as given, before Fill, so zero (the default) is always valid.
func (c Config) Validate() error {
	for _, k := range []struct {
		name string
		v    int64
	}{
		{"MaxCores", int64(c.MaxCores)},
		{"RxRingSize", int64(c.RxRingSize)},
		{"RxBufSize", int64(c.RxBufSize)},
		{"TxBufSize", int64(c.TxBufSize)},
		{"ControlInterval", int64(c.ControlInterval)},
		{"HandshakeRTO", int64(c.HandshakeRTO)},
		{"HandshakeRetries", int64(c.HandshakeRetries)},
		{"MaxRetransmits", int64(c.MaxRetransmits)},
		{"PersistRTO", int64(c.PersistRTO)},
		{"MaxPersistProbes", int64(c.MaxPersistProbes)},
		{"KeepaliveTime", int64(c.KeepaliveTime)},
		{"KeepaliveInterval", int64(c.KeepaliveInterval)},
		{"KeepaliveProbes", int64(c.KeepaliveProbes)},
		{"FinWait2Timeout", int64(c.FinWait2Timeout)},
		{"TimeWaitDuration", int64(c.TimeWaitDuration)},
		{"ListenBacklog", int64(c.ListenBacklog)},
		{"IdleReclaimAge", int64(c.IdleReclaimAge)},
		{"ReclaimBatch", int64(c.ReclaimBatch)},
	} {
		if k.v < 0 {
			return fmt.Errorf("config: negative %s %d", k.name, k.v)
		}
	}
	// The payload ring indexes by mask: any other size would panic the
	// slow path at the first handshake.
	for _, b := range []struct {
		name string
		size int
	}{{"RxBufSize", c.RxBufSize}, {"TxBufSize", c.TxBufSize}} {
		if b.size&(b.size-1) != 0 {
			return fmt.Errorf("config: %s %d is not a power of two", b.name, b.size)
		}
	}
	if Controller(c.CongestionControl, defaultLinkBps) == nil {
		return fmt.Errorf("%w: congestion control %q (want dctcp, timely, dctcp-window or none)",
			ErrUnknownName, c.CongestionControl)
	}
	switch c.SynCookies {
	case SynCookiesAuto, SynCookiesAlways, SynCookiesOff:
	default:
		return fmt.Errorf("%w: SYN-cookie mode %q (want \"\", %q or %q)",
			ErrUnknownName, c.SynCookies, SynCookiesAlways, SynCookiesOff)
	}
	return c.Limits.Validate()
}

// Controller returns the constructor of the named congestion controller
// calibrated to a link of linkBps ("" is dctcp), or nil for an unknown
// name. Rate-based policies start at a tenth of the line rate.
func Controller(name string, linkBps float64) func() congestion.RateController {
	switch name {
	case "", "dctcp":
		return func() congestion.RateController {
			c := congestion.DefaultConfig(linkBps)
			c.InitRate = linkBps / 8 / 10
			return congestion.NewRateDCTCP(c)
		}
	case "timely":
		return func() congestion.RateController {
			c := congestion.DefaultConfig(linkBps)
			c.InitRate = linkBps / 8 / 10
			return congestion.NewTIMELY(c)
		}
	case "dctcp-window":
		return func() congestion.RateController {
			return congestion.NewRateFromWindow(
				congestion.NewWindowDCTCP(protocol.DefaultMSS, 2<<20),
				congestion.DefaultConfig(linkBps))
		}
	case "none":
		return func() congestion.RateController { return unlimited{} }
	}
	return nil
}

// unlimited is the "none" congestion controller: no rate enforcement.
type unlimited struct{}

func (unlimited) Name() string                       { return "none" }
func (unlimited) Update(congestion.Feedback) float64 { return 0 }
func (unlimited) Rate() float64                      { return 0 }
