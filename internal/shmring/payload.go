package shmring

import (
	"sync/atomic"

	"repro/internal/stats"
)

// livePayload tracks the payload-buffer bytes reserved and not yet
// reclaimed, process-wide — the in-process stand-in for the shared
// payload memory segment TAS carves per-flow buffers out of. A buffer
// reserves its full size at construction, whether or not its storage
// has been taken yet (see PayloadBuffer). The
// slow path's application reaper returns a dead app's buffers to the
// pool via Reclaim; tests assert the gauge falls back after a reap.
var livePayload stats.Gauge

// LivePayloadBytes returns the payload-buffer bytes currently reserved
// and not reclaimed.
func LivePayloadBytes() int64 { return livePayload.Load() }

// PayloadBuffer is a circular byte buffer with absolute 32-bit positions,
// modelling the per-flow receive and transmit payload buffers of Table 3:
// rx|tx_start+size describe the region, head is the producer position and
// tail the consumer position. Positions are absolute byte counters that
// wrap modulo 2^32; the buffer index is position mod size, which requires
// the size to be a power of two so that wrapping stays consistent.
//
// The producer owns head, the consumer owns tail. Random-access writes
// (WriteAt) support the fast path's out-of-order deposit: payload is
// placed at its stream position before head advances over it.
//
// A new buffer records its size and holds no storage: the first
// producer call (Write, WriteAt, ReserveHead) allocates it, always fresh
// zeroed memory, and Grow allocates only to copy a ring that has
// storage, so a flow that never carries a byte costs no payload memory.
// Producers hold the flow lock; a consumer reads storage only after it
// observes head > tail, and the producer's atomic head store publishes
// the allocation.
type PayloadBuffer struct {
	buf  []byte        // nil until the first producer call
	mask atomic.Uint32 // size-1; atomic so lock-free Size/Free readers never race Grow
	_    pad
	head atomic.Uint32 // producer position (bytes ever produced)
	_    pad
	tail atomic.Uint32 // consumer position (bytes ever consumed)
	_    pad
	// reclaimed marks a buffer returned to the payload pool by the
	// slow-path reaper: further producer writes are refused (the owning
	// application is dead), while reads keep working so a surviving
	// peer-side consumer can drain what it already has.
	reclaimed atomic.Bool
}

// NewPayloadBuffer returns a buffer of the given power-of-two size.
func NewPayloadBuffer(size int) *PayloadBuffer {
	if size <= 0 || size&(size-1) != 0 {
		panic("shmring: payload buffer size must be a positive power of two")
	}
	livePayload.Add(int64(size))
	b := &PayloadBuffer{}
	b.mask.Store(uint32(size - 1))
	return b
}

// Reclaim returns the buffer's memory to the payload pool (the
// slow-path reaper calls this when an application dies). Idempotent.
// Producer writes are refused afterwards; reads still drain whatever
// was already buffered.
func (b *PayloadBuffer) Reclaim() {
	if b.reclaimed.Swap(true) {
		return
	}
	livePayload.Add(-int64(b.Size()))
}

// Reclaimed reports whether the buffer has been returned to the pool.
func (b *PayloadBuffer) Reclaimed() bool { return b.reclaimed.Load() }

// Size returns the buffer capacity in bytes.
func (b *PayloadBuffer) Size() int { return int(b.mask.Load()) + 1 }

// Head returns the producer position.
func (b *PayloadBuffer) Head() uint32 { return b.head.Load() }

// Tail returns the consumer position.
func (b *PayloadBuffer) Tail() uint32 { return b.tail.Load() }

// Used returns the number of bytes produced but not yet consumed.
func (b *PayloadBuffer) Used() int { return int(b.head.Load() - b.tail.Load()) }

// Free returns the number of bytes that can still be produced.
func (b *PayloadBuffer) Free() int { return b.Size() - b.Used() }

// storage returns the backing memory, allocating it on the first
// producer call. Only producers call it.
func (b *PayloadBuffer) storage() []byte {
	if b.buf == nil {
		b.buf = make([]byte, b.Size())
	}
	return b.buf
}

// copyIn copies data into the ring at absolute position pos.
func (b *PayloadBuffer) copyIn(pos uint32, data []byte) {
	buf := b.storage()
	idx := pos & b.mask.Load()
	n := copy(buf[idx:], data)
	if n < len(data) {
		copy(buf, data[n:])
	}
}

// copyOut copies from the ring at absolute position pos into out.
func (b *PayloadBuffer) copyOut(pos uint32, out []byte) {
	idx := pos & b.mask.Load()
	n := copy(out, b.buf[idx:])
	if n < len(out) {
		copy(out[n:], b.buf[:len(out)-int(uint32(n))])
	}
}

// Write appends data at head and advances head. It reports false (and
// writes nothing) if the free space is insufficient.
func (b *PayloadBuffer) Write(data []byte) bool {
	if len(data) > b.Free() || b.reclaimed.Load() {
		return false
	}
	h := b.head.Load()
	b.copyIn(h, data)
	b.head.Store(h + uint32(len(data)))
	return true
}

// WriteAt places data at absolute position pos without moving head. The
// caller must ensure [pos, pos+len) lies within [head, tail+size) — i.e.
// at or ahead of head but within the free region. Used for out-of-order
// deposit.
func (b *PayloadBuffer) WriteAt(pos uint32, data []byte) {
	b.copyIn(pos, data)
}

// AdvanceHead moves the producer position forward by n bytes (payload
// already placed via WriteAt).
func (b *PayloadBuffer) AdvanceHead(n int) {
	b.head.Store(b.head.Load() + uint32(n))
}

// Read copies up to len(out) bytes from tail and advances tail. It
// returns the number of bytes read.
func (b *PayloadBuffer) Read(out []byte) int {
	avail := b.Used()
	if avail == 0 || len(out) == 0 {
		return 0
	}
	n := len(out)
	if n > avail {
		n = avail
	}
	tl := b.tail.Load()
	b.copyOut(tl, out[:n])
	b.tail.Store(tl + uint32(n))
	return n
}

// ReadAt copies len(out) bytes starting at absolute position pos without
// moving tail. The caller must ensure [pos, pos+len) lies within
// [tail, head). Used by the fast path to fetch transmit payload that must
// remain buffered until acknowledged.
func (b *PayloadBuffer) ReadAt(pos uint32, out []byte) {
	b.copyOut(pos, out)
}

// Release advances tail by n bytes without copying — transmit-buffer
// space reclamation when acknowledgements arrive.
func (b *PayloadBuffer) Release(n int) {
	b.tail.Store(b.tail.Load() + uint32(n))
}

// ReserveHead returns up to n bytes of writable space at the producer
// position as (up to) two spans — the contiguous tail of the ring and
// its wrapped head. The caller fills the spans in order and then calls
// AdvanceHead for the bytes actually written. This is the zero-copy
// produce path: payload is assembled directly in the shared buffer.
func (b *PayloadBuffer) ReserveHead(n int) (first, second []byte) {
	if free := b.Free(); n > free {
		n = free
	}
	if n <= 0 {
		return nil, nil
	}
	return spans(b.storage(), int(b.head.Load()&b.mask.Load()), n)
}

// PeekTail returns up to n readable bytes at the consumer position as
// (up to) two spans, without consuming. Follow with Release for the
// bytes actually consumed. This is the zero-copy consume path.
func (b *PayloadBuffer) PeekTail(n int) (first, second []byte) {
	if used := b.Used(); n > used {
		n = used
	}
	if n <= 0 {
		return nil, nil
	}
	return spans(b.buf, int(b.tail.Load()&b.mask.Load()), n)
}

// spans returns the n ring bytes starting at index idx of buf as (up
// to) two slices: up to the end of buf, then wrapped to its start.
func spans(buf []byte, idx, n int) (first, second []byte) {
	if idx+n <= len(buf) {
		return buf[idx : idx+n], nil
	}
	return buf[idx:], buf[:n-(len(buf)-idx)]
}

// Grow replaces the backing storage with a larger power-of-two buffer,
// preserving the absolute head/tail positions, the unconsumed bytes, and
// anything WriteAt placed ahead of head (the fast path's out-of-order
// interval): the whole old ring is copied to the same positions modulo
// the new size. A buffer without storage just records the new size.
// The paper lists buffer resizing as desirable future work (§4.1
// Limitations); here it backs the slow path's resize management
// command. The caller must hold whatever lock serializes producers and
// consumers of this buffer (the flow spinlock).
func (b *PayloadBuffer) Grow(newSize int) {
	old := b.Size()
	if newSize <= old {
		return
	}
	if newSize&(newSize-1) != 0 {
		panic("shmring: Grow size must be a power of two")
	}
	livePayload.Add(int64(newSize - old))
	tl, ring := b.tail.Load(), b.buf
	b.buf = nil
	b.mask.Store(uint32(newSize - 1))
	if ring != nil {
		first, second := spans(ring, int(tl)&(old-1), old)
		b.copyIn(tl, first)
		b.copyIn(tl+uint32(len(first)), second)
	}
}
