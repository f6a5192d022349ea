package flowstate

import (
	"sync/atomic"

	"repro/internal/protocol"
)

// RSSTableSize is the number of redirection-table entries, matching the
// 128-entry indirection tables of commodity NICs.
const RSSTableSize = 128

// rssMaxCores bounds the failed-core mask (one bit per core). Cores
// beyond it can never be marked failed; engines are configured far
// below this in practice.
const rssMaxCores = 64

// RSS models the NIC's receive-side-scaling redirection table: the flow
// hash indexes a table of fast-path core ids. The slow path rewrites the
// table when it adds or removes cores (§3.4, "we eagerly update the NIC
// RSS redirection table"); packets already in flight may still land on
// the old core, which is why flows carry spinlocks.
//
// The failed-core mask extends the same mechanism to the data-plane
// failure domain: a core the watchdog has declared dead is excluded
// from every rewrite, so neither the failure re-steer itself nor any
// later scale event can steer a bucket back to it until the slow path
// re-admits the core.
type RSS struct {
	table  [RSSTableSize]atomic.Int32
	cores  atomic.Int32
	limit  atomic.Int32  // physical cores that exist (0 = only the active set)
	failed atomic.Uint64 // bitmask of cores excluded from steering
}

// NewRSS returns a table steering everything to core 0.
func NewRSS() *RSS {
	r := &RSS{}
	r.SetCores(1)
	return r
}

// SetCores rewrites the redirection table to spread buckets across the
// first n cores round-robin, skipping cores marked failed. Readers
// racing with the rewrite observe a mix of old and new entries —
// exactly the transient the paper's design tolerates (per-flow
// spinlocks make wrong-core processing safe).
func (r *RSS) SetCores(n int) {
	if n < 1 {
		n = 1
	}
	r.cores.Store(int32(n))
	elig := r.eligible(n)
	for i := 0; i < RSSTableSize; i++ {
		r.table[i].Store(elig[i%len(elig)])
	}
}

// eligible returns the steering targets for a nominal active set of n
// cores: every core in [0,n) whose failed bit is clear. If the whole
// active set is failed it spills to the lowest live core outside the
// active set but within the physical limit — those cores exist, beat,
// and process packets, they just hold no buckets while healthy. If
// every physical core is failed it returns core 0: traffic blackholes
// in the dead core's ring until re-admission or drain, but the table
// never names a core beyond SetLimit — the engine sizes its core array
// from its own configuration, and an out-of-range entry would turn a
// steering decision into a crash on whichever goroutine delivers the
// packet.
func (r *RSS) eligible(n int) []int32 {
	mask := r.failed.Load()
	elig := make([]int32, 0, n)
	for i := 0; i < n && i < rssMaxCores; i++ {
		if mask&(1<<uint(i)) == 0 {
			elig = append(elig, int32(i))
		}
	}
	if len(elig) > 0 {
		return elig
	}
	lim := int(r.limit.Load())
	for i := n; i < lim && i < rssMaxCores; i++ {
		if mask&(1<<uint(i)) == 0 {
			return []int32{int32(i)}
		}
	}
	return []int32{0}
}

// SetLimit records how many physical cores exist (the engine's
// MaxCores). eligible may spill to cores in [active, limit) when the
// whole active set is failed, but never beyond the limit.
func (r *RSS) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	r.limit.Store(int32(n))
}

// SetFailed marks (or clears) a core as failed. It only updates the
// mask; callers rewrite the table afterwards (SetCores) so the change
// takes effect — the two steps mirror the slow path's eager-RSS-update
// protocol.
func (r *RSS) SetFailed(core int, failed bool) {
	if core < 0 || core >= rssMaxCores {
		return
	}
	bit := uint64(1) << uint(core)
	for {
		old := r.failed.Load()
		next := old &^ bit
		if failed {
			next = old | bit
		}
		if r.failed.CompareAndSwap(old, next) {
			return
		}
	}
}

// FailedCount returns how many cores are currently excluded.
func (r *RSS) FailedCount() int {
	mask := r.failed.Load()
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		n++
	}
	return n
}

// Cores returns the nominal number of active cores (the scale target;
// failed cores within it receive no buckets).
func (r *RSS) Cores() int { return int(r.cores.Load()) }

// CoreFor returns the fast-path core that should process a packet with
// the given flow hash.
func (r *RSS) CoreFor(hash uint32) int {
	return int(r.table[hash%RSSTableSize].Load())
}

// CoreForPacket is CoreFor applied to the packet's 4-tuple hash.
func (r *RSS) CoreForPacket(p *protocol.Packet) int {
	return r.CoreFor(p.Hash())
}
