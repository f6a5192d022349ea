package slowpath

import (
	"reflect"
	"sync/atomic"
)

// counterSet is the one declaration of the slow path's event counters.
// Each field states its exported series once, in its tag: `metric` is
// the series name ("-": deliberately not exported), `cause` an optional
// value for the series' cause label, `help` the exposition help text,
// and `drop` the name scenario drop-cause assertions know the counter
// by. The facade registers the series and embeds the snapshot by walking
// these tags, so adding a counter is this one line plus its Add site.
//
// The set is instantiated twice: live as atomics (the event loop and API
// callers such as Connect update them concurrently, and readers must not
// need the event loop's cooperation), and as the plain snapshot Counters
// returns.
type counterSet[T any] struct {
	Established T `metric:"tas_slowpath_established_total" help:"Connections established."`
	Accepted    T `metric:"tas_slowpath_accepted_total" help:"Connections accepted (passive opens)."`
	Rejected    T `metric:"tas_slowpath_rejected_total" help:"Connection attempts refused."`
	Timeouts    T `metric:"tas_slowpath_timeouts_total" help:"Retransmission timeouts declared."`
	Reinjected  T `metric:"-" help:"Packets that raced flow installation, handed back to the fast path."`

	// Failure handling.
	HandshakeRexmits  T `metric:"tas_slowpath_handshake_rexmits_total" help:"SYN/SYN-ACK retransmissions."`
	HandshakeTimeouts T `metric:"-" help:"Half-open entries reaped after the retry cap."`
	FinRexmits        T `metric:"tas_slowpath_fin_rexmits_total" help:"FIN retransmissions."`
	Aborts            T `metric:"tas_slowpath_aborts_total" help:"Flows aborted after retry-budget exhaustion."`

	// Peer liveness (persist timer, keepalives, close lifecycle).
	PersistProbes       T `metric:"tas_persist_probes_total" help:"Zero-window (persist-timer) probes transmitted."`
	KeepaliveProbesSent T `metric:"tas_keepalive_probes_total" help:"TCP keepalive probes transmitted."`
	PeerDeadZeroWindow  T `metric:"tas_peer_dead_total" cause:"zero_window" help:"Flows aborted because persist probes went unanswered."`
	PeerDeadKeepalive   T `metric:"tas_peer_dead_total" cause:"keepalive" help:"Flows aborted because keepalive probes went unanswered."`
	FinWait2Timeouts    T `metric:"tas_fin_wait2_timeouts_total" help:"Flows reclaimed after the peer never sent its FIN."`
	TimeWaitReused      T `metric:"tas_time_wait_reused_total" help:"TIME_WAIT tuples reused early by a fresh SYN (RFC 6191)."`
	StrayRsts           T `metric:"-" help:"RSTs sent for segments that match no connection state."`

	// Application failure and overload.
	AppsReaped       T `metric:"tas_slowpath_apps_reaped_total" help:"Application contexts reaped after their application exited."`
	FlowsReaped      T `metric:"tas_slowpath_flows_reaped_total" help:"Flows reclaimed by the reaper."`
	ListenersReaped  T `metric:"-" help:"Listen ports reclaimed by the reaper."`
	HalfOpenReaped   T `metric:"-" help:"Half-open handshakes reclaimed by the reaper."`
	SynBacklogDrops  T `metric:"tas_slowpath_syn_backlog_drops_total" drop:"syn_backlog" help:"SYNs shed by listener backlog bounds."`
	AcceptQueueDrops T `metric:"-" drop:"accept_queue" help:"Established connections torn down because the accept event was undeliverable."`

	FlowActivations T `metric:"tas_slowpath_flow_activations_total" help:"Parked flows put back on the control tick (idle-to-busy edges)."`

	// The slow path's share of the resource governor's accounting (the
	// governor's own Snapshot carries the per-rung/per-pool detail).
	GovFlowDenied    T `metric:"tas_pressure_flow_denials_total" help:"Flow establishments denied by governor admission (pool or quota exhausted)."`
	GovIdleReclaimed T `metric:"tas_pressure_idle_reclaimed_total" help:"Idle flows reclaimed LRU-first by the ladder's last rung."`

	// Adversarial traffic.
	SynCookiesSent      T `metric:"tas_syn_cookies_sent_total" help:"Stateless SYN-ACKs issued under SYN-cookie mode."`
	SynCookiesValidated T `metric:"tas_syn_cookies_validated_total" help:"Connections reconstructed from a valid cookie ACK."`
	SynCookiesRejected  T `metric:"tas_syn_cookies_rejected_total" help:"Cookie ACKs that failed MAC validation."`
	BlindRstDrops       T `metric:"tas_slowpath_blind_rst_drops_total" help:"RSTs rejected by RFC 5961 sequence validation."`

	// Control-plane failure domain.
	FlowsReconstructed T `metric:"tas_slowpath_flows_reconstructed_total" help:"Flows whose control state was rebuilt by a warm restart."`
	RecoveryAborts     T `metric:"tas_slowpath_recovery_aborts_total" help:"Flows aborted during warm restart (state not provably consistent)."`
	Panics             T `metric:"tas_slowpath_panics_total" help:"Slow-path event-loop panics caught (loop dead until restart)."`

	// Data-plane failure domain (corewatch.go).
	CoreFailures      T `metric:"tas_core_failures_total" help:"Fast-path cores declared failed by the core watchdog."`
	FlowsMigrated     T `metric:"tas_flows_migrated_total" help:"Flows migrated off failed cores onto survivors."`
	CoreReadmits      T `metric:"tas_core_readmits_total" help:"Failed cores folded back into RSS steering after clean heartbeats."`
	CoreDrainRequeued T `metric:"tas_core_drain_requeued_total" help:"Packets and kicks requeued from dead cores' rings onto survivors."`
}

// Counters is a snapshot of the slow path's event counters.
type Counters = counterSet[uint64]

// liveCounters is the block the event loop and the API calls count into.
// It outlives the instance: like the listener registry, the TIME_WAIT
// table and the cookie keys, what must survive a slow-path crash is not
// the crashed instance's private state (§3.2–3.3), so Successor hands the
// same block to the next instance and every exported series stays
// monotonic across warm restarts.
type liveCounters = counterSet[atomic.Uint64]

// Counters returns a snapshot of the slow path's counters.
func (s *Slowpath) Counters() Counters {
	var c Counters
	live, snap := reflect.ValueOf(s.ctr).Elem(), reflect.ValueOf(&c).Elem()
	for i := 0; i < live.NumField(); i++ {
		snap.Field(i).SetUint(live.Field(i).Addr().Interface().(*atomic.Uint64).Load())
	}
	return c
}
