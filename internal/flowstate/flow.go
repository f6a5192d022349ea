// Package flowstate holds the fast path's per-flow connection state
// (Table 3 of the paper: 102 bytes per flow), the flow hash table that
// maps 4-tuples to that state, the per-flow spinlocks that make packets
// arriving on the "wrong" fast-path core safe during scale up/down, and
// the RSS redirection table used to steer packets to cores.
package flowstate

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/protocol"
	"repro/internal/shmring"
	"repro/internal/telemetry"
)

// Flow is the per-flow fast-path state. The layout mirrors Table 3: the
// comments give the paper's field name and bit width; the logical packed
// size is 102 bytes (asserted by a test). The two buffer pointers stand
// in for rx|tx_start|size (the buffers carry their own head/tail
// positions, the rx|tx_head|tail fields), and the rate bucket itself
// stands in for its 24-bit number.
type Flow struct {
	Opaque  uint64 // opaque, 64: application-defined flow identifier
	Context uint16 // context, 16: RX/TX context queue number
	// Charged is the context the resource governor charged the flow to
	// at installation. Unlike Context, which Rebind moves, it never
	// changes, so the release needs no lock and goes to the app that was
	// charged. Outside Table 3 (it fills padding).
	Charged uint16

	RxBuf *shmring.PayloadBuffer // rx_start|size|head|tail
	TxBuf *shmring.PayloadBuffer // tx_start|size|head|tail

	TxSent uint32 // tx_sent, 32: bytes sent but unacknowledged from TxBuf tail

	SeqNo uint32 // seq, 32: local TCP sequence number (next byte to send)
	AckNo uint32 // ack, 32: peer TCP sequence number (next byte expected)

	// Window is the remote TCP receive window (window, 16). Happens-
	// before contract: every writer — installFlow before the flow is
	// published, the fast path's ACK processing, and the slow path's
	// handshake completion — holds the flow spinlock, and the slow
	// path's persist-timer sweep reads it under the same lock, so no
	// atomic is needed; the spinlock's CAS/store pair orders the
	// cross-core accesses.
	Window uint16

	// MSSCap, when nonzero, bounds this flow's segment size below the
	// engine-wide MSS. Set on flows reconstructed from a SYN cookie:
	// the peer's real MSS option is gone by then, so the cookie's
	// recovered MSS class is the only safe segmentation bound.
	MSSCap uint16

	DupAcks uint8 // dupack_cnt, 4: duplicate ACK count

	LocalIP   protocol.IPv4
	LocalPort uint16        // local_port, 16
	PeerIP    protocol.IPv4 // peer_ip, 32
	PeerPort  uint16        // peer_port, 16
	PeerMAC   protocol.MAC  // peer_mac, 48 (for segmentation)

	OooStart uint32 // ooo_start, 32: out-of-order interval start seq
	OooLen   uint32 // ooo_len, 32: out-of-order interval length

	CntAckB     uint32 // cnt_ackb, 32: acknowledged bytes since last slow-path poll
	CntEcnB     uint32 // cnt_ecnb, 32: ECN-marked bytes since last slow-path poll
	CntFrexmits uint8  // cnt_frexmits, 8: fast retransmits triggered
	RTTEst      uint32 // rtt_est, 32: RTT estimate in microseconds

	// RTTVarEst is the smoothed RTT variance (RFC 6298 rttvar, µs),
	// maintained alongside RTTEst on ACK processing. Like Rec, it is
	// observability state outside the paper's Table 3 footprint — the
	// latency observatory's histograms sample it per flow.
	RTTVarEst uint32

	// FinSent/FinReceived track teardown progress; connection control is
	// a slow-path concern but the fast path must not treat a FIN'd
	// stream as common-case data. FinAcked is set by the fast path when
	// the peer acknowledges our FIN's sequence number, so the slow path
	// can stop retransmitting it.
	FinSent     bool
	FinReceived bool
	FinAcked    bool

	// CloseRequested latches the application's Close: the slow path
	// supervises the close from then until the flow leaves the table, and
	// a warm-restarted one resumes it from here. Outside Table 3 (it fills
	// padding); guarded by the flow spinlock.
	CloseRequested bool

	// PeerClosedFirst records which side initiated the close: set when
	// the peer's FIN arrives before we have sent ours. The passive
	// closer (LAST_ACK) goes straight to CLOSED when its FIN is acked;
	// only the active closer enters the TIME_WAIT quarantine. Outside
	// the paper's Table 3 footprint (close-lifecycle bookkeeping, not
	// common-case state); guarded by the flow spinlock.
	PeerClosedFirst bool

	// Aborted marks a flow torn down by failure (retransmission budget
	// exhausted or peer RST): the fast path must stop transmitting and
	// the stack returns reset errors instead of blocking.
	Aborted bool

	// PeerDead refines Aborted: the slow path's probe machinery
	// (zero-window persist probes or keepalives) exhausted its budget
	// without a response, so the peer is presumed gone. libtas maps it
	// to ErrPeerDead instead of the generic reset error. Outside Table 3
	// (failure-cause bookkeeping); guarded by the flow spinlock.
	PeerDead bool

	// TxMax is how far past the oldest unacknowledged byte anything has
	// been sent (SND.MAX − SND.UNA). A go-back-N rewind lowers TxSent and
	// SeqNo but not TxMax, so an ACK for bytes sent before the rewind is
	// still recognised and skips them instead of being clamped away.
	// Outside Table 3 (it fills padding); guarded by the flow spinlock.
	TxMax uint32

	// Rec is the flow's flight-recorder ring, nil when telemetry is off.
	// It is outside the paper's Table 3 footprint (observability state,
	// not protocol state) and is written by whichever layer holds the
	// flow at the time — the ring has its own short lock.
	Rec *telemetry.FlowRing

	// lock is the per-connection spinlock (§3.4): taken by whichever
	// fast-path core handles a packet for this flow, so that packets
	// arriving on the wrong core during scale up/down remain safe.
	lock SpinLock

	// Parked marks a flow the slow path has taken off its control tick:
	// nothing in flight, nothing pending, feedback counters drained, its
	// controller at a fixed point. Guarded by the flow spinlock. The slow
	// path sets it; whoever next gives the flow control work — the fast
	// path's transmit, Close — clears it under the same lock and queues
	// the flow on the engine's activation ring. It fills padding beside
	// the lock (the line every packet already takes), off the
	// sequence-state line.
	Parked bool

	// touched is the flow's last-activity stamp (engine-clock nanos):
	// written by the fast path per processed packet and by libtas per
	// Send, read by the resource governor's LRU idle-reclaim rung to
	// pick victims oldest-first. A plain atomic store off the flow lock
	// — the reclaim sweep tolerates approximate ordering.
	touched atomic.Int64

	// retired latches exactly-once resource reclamation: every teardown
	// path (FIN, RST, abort, reaper, recovery, undeliverable accept)
	// funnels through the slow path's reclaim helper, and only the caller
	// that wins this CAS returns the flow's buffers and governor charges
	// — double teardown must never double-release.
	retired atomic.Bool

	// RateBucket is the flow's rate bucket (bucket, 24: Table 3 keeps a
	// number into a bucket array; here the bucket is the flow's own, so
	// installing a flow allocates nothing for it and removing it returns
	// nothing). The slow path sets its rate; the fast-path core holding
	// the flow lock drains it.
	RateBucket Bucket
}

// Retire claims the flow's one-shot reclamation token. The first caller
// gets true and must release the flow's resources; later callers get
// false and must not.
func (f *Flow) Retire() bool { return f.retired.CompareAndSwap(false, true) }

// Retired reports whether the flow's resources have been reclaimed.
func (f *Flow) Retired() bool { return f.retired.Load() }

// Touch stamps the flow's last-activity clock.
func (f *Flow) Touch(nanos int64) { f.touched.Store(nanos) }

// LastTouched returns the last-activity stamp (engine-clock nanos).
func (f *Flow) LastTouched() int64 { return f.touched.Load() }

// Lock acquires the flow's spinlock.
func (f *Flow) Lock() { f.lock.Lock() }

// TryLock acquires the flow's spinlock if it is free and reports
// whether it did.
func (f *Flow) TryLock() bool { return f.lock.TryLock() }

// Unlock releases the flow's spinlock.
func (f *Flow) Unlock() { f.lock.Unlock() }

// Key returns the flow's 4-tuple key (local perspective).
func (f *Flow) Key() protocol.FlowKey {
	return protocol.FlowKey{LocalIP: f.LocalIP, LocalPort: f.LocalPort, RemoteIP: f.PeerIP, RemotePort: f.PeerPort}
}

// TxPending returns the number of bytes in the transmit buffer that have
// not been sent yet (the amount the fast path may still segment).
func (f *Flow) TxPending() int {
	return f.TxBuf.Used() - int(f.TxSent)
}

// Quiescent reports whether the flow holds no work for the slow path's
// control tick: nothing unacknowledged, nothing unsent (which also rules
// out a zero-window stall), no undelivered congestion feedback, and no
// close in progress. Only a quiescent flow may be Parked. Callers hold
// the flow spinlock.
func (f *Flow) Quiescent() bool {
	return f.TxSent == 0 && f.TxPending() <= 0 &&
		f.CntAckB == 0 && f.CntEcnB == 0 && f.CntFrexmits == 0 &&
		!f.CloseRequested
}

// TakeCounters returns and clears the congestion feedback counters, as
// the slow path does at each control interval.
func (f *Flow) TakeCounters() (ackB, ecnB uint32, frexmits uint8) {
	ackB, ecnB, frexmits = f.CntAckB, f.CntEcnB, f.CntFrexmits
	f.CntAckB, f.CntEcnB, f.CntFrexmits = 0, 0, 0
	return
}

// PackedSize is the paper's logical per-flow state footprint in bytes
// (Table 3 sums to 818 bits ≈ 102 bytes). The fast path's cache working
// set per flow is this constant; the connection-scalability experiments
// use it to model cache pressure.
const PackedSize = 102

// SpinLock is a test-and-set spinlock with passive backoff. The paper
// uses per-connection spinlocks because cross-core contention is rare
// (only during core scaling); a futex-style blocking lock would be
// heavier in the common uncontended case.
type SpinLock struct {
	v atomic.Uint32
}

// Lock spins until the lock is acquired.
func (s *SpinLock) Lock() {
	for !s.v.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

// TryLock attempts to acquire the lock without spinning.
func (s *SpinLock) TryLock() bool { return s.v.CompareAndSwap(0, 1) }

// Unlock releases the lock.
func (s *SpinLock) Unlock() { s.v.Store(0) }

// Table maps 4-tuples to flow state. It is sharded to avoid the global
// shared-state bottleneck the paper identifies in monolithic stacks
// (overhead source 3): lookups on different shards never contend.
type Table struct {
	shards [tableShards]tableShard
	count  atomic.Int64
}

const tableShards = 64

type tableShard struct {
	mu sync.RWMutex
	m  map[protocol.FlowKey]*Flow
	_  [40]byte // pad to a cache line to avoid false sharing between shards
}

// NewTable returns an empty flow table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = make(map[protocol.FlowKey]*Flow)
	}
	return t
}

func (t *Table) shardFor(k protocol.FlowKey) *tableShard {
	h := protocol.FlowHash(k.LocalIP, k.LocalPort, k.RemoteIP, k.RemotePort)
	return &t.shards[h%tableShards]
}

// Lookup returns the flow for k, or nil if none is installed.
func (t *Table) Lookup(k protocol.FlowKey) *Flow {
	s := t.shardFor(k)
	s.mu.RLock()
	f := s.m[k]
	s.mu.RUnlock()
	return f
}

// Insert installs f under its key. It reports false if a flow with the
// same key already exists (the existing flow is left in place).
func (t *Table) Insert(f *Flow) bool {
	k := f.Key()
	s := t.shardFor(k)
	s.mu.Lock()
	if _, dup := s.m[k]; dup {
		s.mu.Unlock()
		return false
	}
	s.m[k] = f
	s.mu.Unlock()
	t.count.Add(1)
	return true
}

// Remove deletes the flow for k and returns it (nil if absent).
func (t *Table) Remove(k protocol.FlowKey) *Flow {
	s := t.shardFor(k)
	s.mu.Lock()
	f, ok := s.m[k]
	if ok {
		delete(s.m, k)
	}
	s.mu.Unlock()
	if ok {
		t.count.Add(-1)
	}
	return f
}

// Len returns the number of installed flows.
func (t *Table) Len() int { return int(t.count.Load()) }

// ForEach calls fn for every flow. The iteration holds one shard read
// lock at a time; fn must not call back into the table for the same
// shard. Used by the slow path's congestion-control sweep.
func (t *Table) ForEach(fn func(*Flow)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		flows := make([]*Flow, 0, len(s.m))
		for _, f := range s.m {
			flows = append(flows, f)
		}
		s.mu.RUnlock()
		for _, f := range flows {
			fn(f)
		}
	}
}
