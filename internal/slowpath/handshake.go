package slowpath

import (
	"math/rand"
	"sync"

	"repro/internal/fastpath"
	"repro/internal/protocol"
	"repro/internal/resource"
)

// hsTable is the handshake table: every listener, every half-open
// handshake and the ISS generator, under one mutex of its own (not
// Slowpath.mu). On a server only the event loop writes it — every SYN,
// SYN-ACK, ACK and RST arrives as an exception — and Connect is its one
// other writer.
//
// Handshake backoff has no ceiling, so the k-th retransmission always
// waits HandshakeRTO·2^k: the half-opens waiting on the same attempt
// queue in deadline order, one FIFO per attempt (wait), and the timer
// pass pops due heads only. An entry no longer in half (completed,
// refused or reaped) is stale where it is still queued, and is dropped
// when it reaches the head.
type hsTable struct {
	mu        sync.Mutex
	listeners map[uint16]*listener
	half      map[protocol.FlowKey]*halfOpen
	wait      [][]*halfOpen // wait[k]: half-opens whose timer has fired k times
	rng       *rand.Rand    // ISS generation
}

// addHalf records a new half-open, its first deadline queued last.
// Caller holds hs.mu and read h's start time under it, so deadlines
// never decrease along wait[0].
func (t *hsTable) addHalf(h *halfOpen) {
	t.half[h.key] = h
	t.wait[0] = append(t.wait[0], h)
}

// dropHalf removes a half-open entry and releases its listener backlog
// slot. Caller holds hs.mu. Only passive entries carry a listener
// reference — an active open (Dial side) never decrements any
// listener's halfCount, so flood-driven reaping of a listener's
// backlog can never reclaim an active-open handshake's accounting.
func (s *Slowpath) dropHalf(h *halfOpen) {
	delete(s.hs.half, h.key)
	if h.passive && h.lst != nil && h.lst.halfCount > 0 {
		h.lst.halfCount--
	}
	s.charge(resource.PoolHalfOpen, -1)
}

// handshakeSweep retransmits unanswered SYNs / SYN-ACKs with
// exponential backoff and reaps half-open entries whose retry budget is
// exhausted — the slow path owns handshake timeouts (§3.2). It pops due
// heads only, so its cost is the deadlines that fired. An active open
// that gives up delivers EvConnected/ConnTimedOut so the application
// unblocks in bounded time.
func (s *Slowpath) handshakeSweep(now int64) {
	var resend, failed []*halfOpen
	t := &s.hs
	t.mu.Lock()
	for k := len(t.wait) - 1; k >= 0; k-- {
		for len(t.wait[k]) > 0 {
			h := t.wait[k][0]
			live := t.half[h.key] == h
			if live && !h.rexmit.due(now) {
				break
			}
			t.wait[k][0] = nil
			t.wait[k] = t.wait[k][1:]
			switch {
			case !live:
			case k == s.cfg.HandshakeRetries:
				s.dropHalf(h)
				s.ctr.HandshakeTimeouts.Add(1)
				if !h.passive {
					failed = append(failed, h)
				}
			default:
				h.rexmit.backoff(now, 0)
				t.wait[k+1] = append(t.wait[k+1], h)
				s.ctr.HandshakeRexmits.Add(1)
				resend = append(resend, h)
			}
		}
	}
	t.mu.Unlock()
	for _, h := range resend {
		s.sendHandshake(h)
	}
	for _, h := range failed {
		s.notify(h.ctxID, fastpath.Event{Kind: fastpath.EvConnected, Opaque: h.opaque, Bytes: fastpath.ConnTimedOut})
	}
}

// HalfOpenCount reports the current half-open handshake occupancy (the
// tas_half_open gauge).
func (s *Slowpath) HalfOpenCount() int {
	s.hs.mu.Lock()
	defer s.hs.mu.Unlock()
	return len(s.hs.half)
}

// AcceptBacklog sums established-but-unaccepted connections across
// every listener (the tas_accept_backlog gauge).
func (s *Slowpath) AcceptBacklog() int {
	s.hs.mu.Lock()
	defer s.hs.mu.Unlock()
	n := 0
	for _, l := range s.hs.listeners {
		n += int(l.Pending.Load())
	}
	return n
}
