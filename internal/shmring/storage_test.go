package shmring

import (
	"bytes"
	"runtime"
	"testing"
)

// A new buffer records its size and takes no storage: its cost is the
// header, whatever the size.
func TestNewPayloadBufferTakesNoStorage(t *testing.T) {
	const size = 256 << 10
	var sink *PayloadBuffer
	if n := testing.AllocsPerRun(100, func() {
		sink = NewPayloadBuffer(size)
		sink.Reclaim()
	}); n > 1 {
		t.Fatalf("NewPayloadBuffer: %v allocs, want the header alone", n)
	}
	const rounds = 64
	bufs := make([]*PayloadBuffer, rounds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range bufs {
		bufs[i] = NewPayloadBuffer(size)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 1<<10 {
		t.Fatalf("a %d-byte buffer allocated %d bytes, want < 1 KiB", size, per)
	}
	for _, b := range bufs {
		if b.Size() != size || b.buf != nil {
			t.Fatalf("size %d, storage %d bytes: want %d and none", b.Size(), len(b.buf), size)
		}
		b.Reclaim()
	}
}

// Consumer calls and queries on a buffer without storage neither take
// it nor allocate.
func TestPayloadBufferEmptyReadsTakeNoStorage(t *testing.T) {
	b := NewPayloadBuffer(4096)
	defer b.Reclaim()
	out := make([]byte, 64)
	if n := testing.AllocsPerRun(100, func() {
		b.Read(out)
		b.PeekTail(64)
		b.ReserveHead(0)
		_ = b.Used() + b.Free() + b.Size()
	}); n != 0 {
		t.Fatalf("%v allocs, want 0", n)
	}
	if b.buf != nil {
		t.Fatal("a consumer call took storage")
	}
	if b.Used() != 0 || b.Free() != 4096 || b.Size() != 4096 {
		t.Fatalf("used %d free %d size %d", b.Used(), b.Free(), b.Size())
	}
}

// Growing a buffer without storage records the new size and allocates
// nothing.
func TestPayloadBufferGrowWithoutStorage(t *testing.T) {
	b := NewPayloadBuffer(1 << 10)
	defer b.Reclaim()
	shift := 1
	if n := testing.AllocsPerRun(10, func() {
		b.Grow(1 << (10 + shift))
		shift++
	}); n != 0 {
		t.Fatalf("Grow without storage: %v allocs, want 0", n)
	}
	if b.buf != nil || b.Size() != 1<<(10+shift-1) {
		t.Fatalf("size %d, storage %d bytes", b.Size(), len(b.buf))
	}
}

// Grow keeps what WriteAt placed ahead of head, not just the unconsumed
// bytes: a receive buffer resized while it holds an out-of-order
// interval delivers that interval intact once the gap fills.
func TestPayloadBufferGrowKeepsOutOfOrderBytes(t *testing.T) {
	b := NewPayloadBuffer(16)
	defer b.Reclaim()
	start := uint32(1<<32 - 10) // ring index 6: the interval wraps the ring
	b.head.Store(start)
	b.tail.Store(start)
	b.Write([]byte("ab"))
	b.WriteAt(start+6, []byte("ghijklmn")) // gap at 2..5
	b.Grow(64)
	b.WriteAt(start+2, []byte("cdef"))
	b.AdvanceHead(12)
	out := make([]byte, 14)
	if n := b.Read(out); n != 14 || string(out) != "abcdefghijklmn" {
		t.Fatalf("read %d %q after the grow, want the whole stream", n, out[:n])
	}
}

// The first ReserveHead takes fresh storage: every byte it exposes is
// zero, on a buffer at position 0 and on one whose positions already
// stand mid-ring.
func TestFirstReserveHeadIsZeroed(t *testing.T) {
	for _, start := range []uint32{0, 5, 1<<32 - 3} {
		b := NewPayloadBuffer(32)
		b.head.Store(start)
		b.tail.Store(start)
		first, second := b.ReserveHead(32)
		if len(first)+len(second) != 32 {
			t.Fatalf("start %d: reserved %d+%d bytes, want 32", start, len(first), len(second))
		}
		for _, span := range [][]byte{first, second} {
			for i, v := range span {
				if v != 0 {
					t.Fatalf("start %d: reserved byte %d is %#x", start, i, v)
				}
			}
		}
		b.Reclaim()
	}
}

// Head and tail already wrapped past the ring end and near 2^32 when
// storage is taken: the first write lands at the right ring index and
// reads back intact, with later writes crossing the 2^32 wrap.
func TestPayloadBufferWrapAcrossFirstAllocation(t *testing.T) {
	for _, producer := range []string{"Write", "WriteAt", "ReserveHead"} {
		b := NewPayloadBuffer(16)
		start := uint32(1<<32 - 6) // ring index 10: the first write wraps the ring
		b.head.Store(start)
		b.tail.Store(start)
		data := []byte("0123456789ab")
		switch producer {
		case "Write":
			b.Write(data)
		case "WriteAt":
			b.WriteAt(start, data)
			b.AdvanceHead(len(data))
		case "ReserveHead":
			first, second := b.ReserveHead(len(data))
			copy(second, data[copy(first, data):])
			b.AdvanceHead(len(data))
		}
		if b.Head() != start+uint32(len(data)) || b.Used() != len(data) {
			t.Fatalf("%s: head %d used %d", producer, b.Head(), b.Used())
		}
		out := make([]byte, len(data))
		if n := b.Read(out); n != len(data) || !bytes.Equal(out, data) {
			t.Fatalf("%s: read %d %q, want %q", producer, n, out, data)
		}
		for round := 0; round < 8; round++ {
			chunk := []byte{byte(round), byte(round + 1), byte(round + 2)}
			b.Write(chunk)
			got := make([]byte, 3)
			if b.Read(got); !bytes.Equal(got, chunk) {
				t.Fatalf("%s round %d: got %v want %v", producer, round, got, chunk)
			}
		}
		b.Reclaim()
	}
}
