package shmring

import "sync"

// MPSC is an SPSC ring whose producer side is serialized by a mutex,
// for queues that have more than one enqueuing goroutine. In the paper
// the per-core packet queues have exactly one producer — the NIC's DMA
// engine — but in this in-process reproduction the "NIC" is whichever
// peer goroutine the fabric happens to deliver on, and the slow path,
// application threads, and the core-failure drain all push transmit
// requests concurrently. The consumer side is untouched: the fast-path
// core still dequeues lock-free, and producers never contend with it,
// only with each other.
type MPSC[T any] struct {
	SPSC[T]
	_  pad
	mu sync.Mutex
}

// NewMPSC returns a multi-producer queue with capacity rounded up to a
// power of two (minimum 2).
func NewMPSC[T any](capacity int) *MPSC[T] {
	c := 2
	for c < capacity {
		c <<= 1
	}
	q := &MPSC[T]{}
	q.buf = make([]T, c)
	q.mask = uint64(c - 1)
	return q
}

// Enqueue appends v, serializing against other producers. It reports
// false when the queue is full.
func (q *MPSC[T]) Enqueue(v T) bool {
	q.mu.Lock()
	ok := q.SPSC.Enqueue(v)
	q.mu.Unlock()
	return ok
}
