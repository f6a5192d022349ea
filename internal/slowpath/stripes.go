package slowpath

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/resource"
)

// Lock-striped listener/half-open tables. Before this existed, one
// mutex guarded every listener and every in-flight handshake, so a SYN
// flood against a single port serialized the entire control plane —
// Dial, accept, and teardown on unrelated ports all queued behind the
// attacker. Striping shards that state by local port: connection-setup
// work on one port only contends with traffic that hashes to the same
// stripe.
//
// The stripe key is the local port, not the full 4-tuple, deliberately:
// a listener and every passive half-open it spawns share a LocalPort,
// so they land in the same stripe and the listener's halfCount backlog
// accounting stays consistent under a single stripe lock. Active opens
// hash by their ephemeral local port and spread across stripes.

// stripe is one shard. The padding keeps adjacent stripes on separate
// cache lines so uncontended stripes don't false-share.
type stripe struct {
	mu        sync.Mutex
	listeners map[uint16]*listener
	half      map[protocol.FlowKey]*halfOpen
	rng       *rand.Rand         // ISS generation; guarded by mu
	gov       *resource.Governor // half-open slot accounting (nil = ungoverned)
	_         [64]byte
}

// newStripes builds n stripes (n must be a power of two; Config.Fill
// guarantees it) with independently seeded ISS generators.
func newStripes(n int, gov *resource.Governor) []*stripe {
	ss := make([]*stripe, n)
	for i := range ss {
		ss[i] = &stripe{
			listeners: make(map[uint16]*listener),
			half:      make(map[protocol.FlowKey]*halfOpen),
			rng:       rand.New(rand.NewSource(time.Now().UnixNano() + int64(i)<<32)),
			gov:       gov,
		}
	}
	return ss
}

// stripeShift converts a stripe count into the right-shift that maps a
// 32-bit hash onto a stripe index.
func stripeShift(n int) uint {
	shift := uint(32)
	for n > 1 {
		n >>= 1
		shift--
	}
	return shift
}

// stripeFor returns the stripe owning a local port. Multiplicative
// hashing (Fibonacci constant) spreads the sequential port numbers
// dials allocate; adjacent ports land in different stripes.
func (s *Slowpath) stripeFor(port uint16) *stripe {
	return s.stripes[uint32(port)*0x9E3779B1>>s.stripeSh]
}

// stripeOf returns the stripe owning a flow key (by its local port).
func (s *Slowpath) stripeOf(key protocol.FlowKey) *stripe {
	return s.stripeFor(key.LocalPort)
}

// dropHalf removes a half-open entry and releases its listener backlog
// slot. Caller holds st.mu. Only passive entries carry a listener
// reference — an active open (Dial side) never decrements any
// listener's halfCount, so flood-driven reaping of a listener's
// backlog can never reclaim an active-open handshake's accounting.
func (st *stripe) dropHalf(key protocol.FlowKey, h *halfOpen) {
	delete(st.half, key)
	if h.passive && h.lst != nil && h.lst.halfCount > 0 {
		h.lst.halfCount--
	}
	if st.gov != nil {
		st.gov.Charge(resource.PoolHalfOpen, -1)
	}
}

// HalfOpenCount reports the current half-open handshake occupancy (the
// tas_half_open gauge), taking every stripe lock in turn.
func (s *Slowpath) HalfOpenCount() int {
	n := 0
	for _, st := range s.stripes {
		st.mu.Lock()
		n += len(st.half)
		st.mu.Unlock()
	}
	return n
}

// AcceptBacklog sums established-but-unaccepted connections across
// every listener (the tas_accept_backlog gauge).
func (s *Slowpath) AcceptBacklog() int {
	n := 0
	for _, st := range s.stripes {
		st.mu.Lock()
		for _, l := range st.listeners {
			n += int(l.Pending.Load())
		}
		st.mu.Unlock()
	}
	return n
}
