// Package shmring implements the shared-memory communication primitives
// TAS uses between its components: cache-padded single-producer/
// single-consumer descriptor rings (the context queues and packet queues)
// and circular payload buffers (the per-flow rx/tx buffers identified by
// the rx|tx_start, size, head and tail fields of the per-flow state).
//
// In the paper these live in memory shared between the TAS process and
// application processes; here both sides are goroutines in one address
// space, and the rings provide the same lock-free, allocation-free
// message passing.
package shmring

import (
	"sync/atomic"
)

// pad is a cache-line pad to keep producer and consumer indices on
// separate lines, avoiding false sharing — the paper's point (2) about
// per-connection state spread and false sharing applies to queue indices
// just as much.
type pad [64]byte

// SPSC is a bounded lock-free single-producer single-consumer queue with
// a power-of-two capacity. Exactly one goroutine may call Enqueue and
// exactly one may call Dequeue.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	_    pad
	head atomic.Uint64 // next slot to dequeue (consumer-owned)
	_    pad
	tail atomic.Uint64 // next slot to enqueue (producer-owned)
	_    pad
}

// NewSPSC returns a queue with capacity rounded up to a power of two
// (minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	c := 2
	for c < capacity {
		c <<= 1
	}
	return &SPSC[T]{buf: make([]T, c), mask: uint64(c - 1)}
}

// Cap returns the queue capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Len returns the number of queued items (approximate under concurrency).
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// Enqueue appends v. It reports false when the queue is full.
func (q *SPSC[T]) Enqueue(v T) bool {
	tail := q.tail.Load()
	if tail-q.head.Load() >= uint64(len(q.buf)) {
		return false
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1)
	return true
}

// Dequeue removes and returns the oldest item. ok is false when empty.
func (q *SPSC[T]) Dequeue() (v T, ok bool) {
	head := q.head.Load()
	if head == q.tail.Load() {
		return v, false
	}
	v = q.buf[head&q.mask]
	var zero T
	q.buf[head&q.mask] = zero
	q.head.Store(head + 1)
	return v, true
}

// DequeueBatch removes up to len(out) items into out and returns the
// count, amortizing index updates — the batching opportunity dedicated-CPU
// stacks exploit (§2.1).
func (q *SPSC[T]) DequeueBatch(out []T) int {
	head := q.head.Load()
	avail := q.tail.Load() - head
	n := uint64(len(out))
	if avail < n {
		n = avail
	}
	if n == 0 {
		return 0
	}
	var zero T
	for i := uint64(0); i < n; i++ {
		out[i] = q.buf[(head+i)&q.mask]
		q.buf[(head+i)&q.mask] = zero
	}
	q.head.Store(head + n)
	return int(n)
}
