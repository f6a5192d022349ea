package flowstate

import (
	"sync"
	"sync/atomic"
)

// ListenerEntry is the shared-memory record of one listening port. Like
// the flow table, it lives on the fast-path side of the slow-path
// boundary so it survives a slow-path crash: a warm-restarted slow path
// rebuilds its listener map from these entries, and because the Pending
// gauge object is stored here (not in the slow path), the accept-queue
// depth the application side decrements keeps pointing at the same
// counter across restarts.
type ListenerEntry struct {
	Port    uint16
	CtxID   uint16
	Opaque  uint64
	Backlog int
	Pending *atomic.Int32 // accept-queue depth, shared with libtas
}

// ListenerTable is the authoritative registry of listening ports,
// keyed by port. The slow path writes through it on listen/unlisten and
// scans it during warm-restart state reconstruction.
type ListenerTable struct {
	mu sync.Mutex
	m  map[uint16]*ListenerEntry
}

// NewListenerTable returns an empty table.
func NewListenerTable() *ListenerTable {
	return &ListenerTable{m: make(map[uint16]*ListenerEntry)}
}

// Insert records a listener; it reports false if the port is taken.
func (t *ListenerTable) Insert(e *ListenerEntry) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.m[e.Port]; dup {
		return false
	}
	t.m[e.Port] = e
	return true
}

// Remove drops the listener on port.
func (t *ListenerTable) Remove(port uint16) {
	t.mu.Lock()
	delete(t.m, port)
	t.mu.Unlock()
}

// ForEach visits every entry (snapshot; safe to mutate the table from
// the callback).
func (t *ListenerTable) ForEach(fn func(*ListenerEntry)) {
	t.mu.Lock()
	entries := make([]*ListenerEntry, 0, len(t.m))
	for _, e := range t.m {
		entries = append(entries, e)
	}
	t.mu.Unlock()
	for _, e := range entries {
		fn(e)
	}
}
