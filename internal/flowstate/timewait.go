package flowstate

import (
	"sync"

	"repro/internal/protocol"
)

// TimeWaitEntry is the compact 2MSL quarantine record a flow leaves
// behind when it completes an active close. The flow itself is removed
// from the table and all its resources (buffers, bucket, flow slot)
// are reclaimed immediately — the quarantine holds only what the
// RFC 793 TIME-WAIT responses need: the tuple, SND.NXT (seq after our
// FIN) for re-acks, RCV.NXT (ack past the peer's FIN) for acceptance
// checks and SYN-reuse ISN comparison, and the expiry deadline. This
// is what makes a FIN storm cheap: a quarantined connection costs tens
// of bytes against its own governed pool instead of a full flow slot
// plus payload buffers.
type TimeWaitEntry struct {
	Key      protocol.FlowKey
	FinalSeq uint32 // SND.NXT: sequence just past our FIN
	FinalAck uint32 // RCV.NXT: ack just past the peer's FIN
	Expiry   int64  // engine-clock nanos; refreshed on peer FIN rexmit
}

// TimeWaitTable is the 2MSL quarantine. Like the flow and listener
// tables it lives on the engine side of the slow-path boundary, so a
// warm-restarted slow path re-adopts quarantined tuples (and their
// governor charges) instead of forgetting that a previous incarnation
// of a 4-tuple just died. Expiry deadlines use the engine clock, which
// also survives slow-path restarts.
//
// Every deadline is now plus one constant quarantine, so the queue
// holds entries in deadline order and Expire and EvictOldest pop heads
// only. An entry the map no longer points at (removed, replaced or
// extended) is stale: it stays queued until it reaches the head and is
// dropped there uncounted.
type TimeWaitTable struct {
	mu sync.Mutex
	m  map[protocol.FlowKey]*TimeWaitEntry
	q  []*TimeWaitEntry // insertion order
}

// NewTimeWaitTable returns an empty quarantine.
func NewTimeWaitTable() *TimeWaitTable {
	return &TimeWaitTable{m: make(map[protocol.FlowKey]*TimeWaitEntry)}
}

// Insert quarantines a tuple, replacing any existing entry for the key.
func (t *TimeWaitTable) Insert(e *TimeWaitEntry) {
	t.mu.Lock()
	t.m[e.Key] = e
	t.q = append(t.q, e)
	t.mu.Unlock()
}

// Lookup returns the entry for k, or nil.
func (t *TimeWaitTable) Lookup(k protocol.FlowKey) *TimeWaitEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

// Remove drops the entry for k and reports whether one existed (the
// caller releases the governor charge only on true — early SYN reuse
// and the expiry sweep can race).
func (t *TimeWaitTable) Remove(k protocol.FlowKey) bool {
	t.mu.Lock()
	_, ok := t.m[k]
	delete(t.m, k)
	t.mu.Unlock()
	return ok
}

// Extend refreshes k's expiry (a retransmitted peer FIN restarts the
// 2MSL clock, per RFC 793). The refreshed entry is a copy queued at the
// tail, where its new deadline belongs.
func (t *TimeWaitTable) Extend(k protocol.FlowKey, expiry int64) {
	t.mu.Lock()
	if e := t.m[k]; e != nil && expiry > e.Expiry {
		n := *e
		n.Expiry = expiry
		t.m[k] = &n
		t.q = append(t.q, &n)
	}
	t.mu.Unlock()
}

// Expire removes the entries whose deadline has passed and returns how
// many it removed.
func (t *TimeWaitTable) Expire(now int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for e := t.head(); e != nil && e.Expiry <= now; e = t.head() {
		delete(t.m, e.Key)
		n++
	}
	return n
}

// EvictOldest removes the least recently inserted or extended entry,
// reporting whether one existed. Called when the quarantine pool is at
// capacity: recycling the oldest incarnation is safer than refusing to
// quarantine the newest.
func (t *TimeWaitTable) EvictOldest() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.head()
	if e != nil {
		delete(t.m, e.Key)
	}
	return e != nil
}

// head drops stale entries off the front of the queue and returns the
// first live one, or nil. Caller holds mu.
func (t *TimeWaitTable) head() *TimeWaitEntry {
	for len(t.q) > 0 {
		if e := t.q[0]; t.m[e.Key] == e {
			return e
		}
		t.q[0] = nil
		t.q = t.q[1:]
	}
	return nil
}

// Len returns the number of quarantined tuples.
func (t *TimeWaitTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
