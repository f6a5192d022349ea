package shmring

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](4)
	if q.Cap() != 4 {
		t.Fatalf("cap = %d", q.Cap())
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue from empty should fail")
	}
	for i := 0; i < 4; i++ {
		if !q.Enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if q.Enqueue(99) {
		t.Fatal("enqueue into full should fail")
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d: got %d, %v", i, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len after drain = %d", q.Len())
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 2}, {1, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}} {
		if got := NewSPSC[byte](c.in).Cap(); got != c.want {
			t.Errorf("cap(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSPSCWraparound(t *testing.T) {
	q := NewSPSC[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !q.Enqueue(round*10 + i) {
				t.Fatal("enqueue failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Dequeue()
			if !ok || v != round*10+i {
				t.Fatalf("round %d item %d: got %d", round, i, v)
			}
		}
	}
}

func TestSPSCDequeueBatch(t *testing.T) {
	q := NewSPSC[int](16)
	for i := 0; i < 10; i++ {
		q.Enqueue(i)
	}
	out := make([]int, 4)
	if n := q.DequeueBatch(out); n != 4 {
		t.Fatalf("batch = %d", n)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	out2 := make([]int, 100)
	if n := q.DequeueBatch(out2); n != 6 {
		t.Fatalf("second batch = %d, want 6", n)
	}
	if n := q.DequeueBatch(out2); n != 0 {
		t.Fatalf("empty batch = %d", n)
	}
}

func TestSPSCConcurrent(t *testing.T) {
	q := NewSPSC[uint64](128)
	const n = 200_000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; {
			if q.Enqueue(i) {
				i++
			} else {
				runtime.Gosched() // single-CPU machines need the yield
			}
		}
	}()
	var sum, count uint64
	go func() {
		defer wg.Done()
		for count < n {
			if v, ok := q.Dequeue(); ok {
				if v != count {
					t.Errorf("out of order: got %d want %d", v, count)
					return
				}
				sum += v
				count++
			} else {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	if want := uint64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestSPSCConcurrentBatch(t *testing.T) {
	q := NewSPSC[uint64](64)
	const n = 100_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; {
			if q.Enqueue(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	buf := make([]uint64, 17)
	var count uint64
	for count < n {
		k := q.DequeueBatch(buf)
		if k == 0 {
			runtime.Gosched()
		}
		for i := 0; i < k; i++ {
			if buf[i] != count {
				t.Fatalf("out of order at %d: %d", count, buf[i])
			}
			count++
		}
	}
	wg.Wait()
}

func TestSPSCFIFOProperty(t *testing.T) {
	f := func(ops []bool, vals []int16) bool {
		q := NewSPSC[int16](8)
		var model []int16
		vi := 0
		for _, enq := range ops {
			if enq && vi < len(vals) {
				if q.Enqueue(vals[vi]) {
					model = append(model, vals[vi])
				} else if len(model) != q.Cap() {
					return false // full mismatch
				}
				vi++
			} else {
				v, ok := q.Dequeue()
				if ok {
					if len(model) == 0 || v != model[0] {
						return false
					}
					model = model[1:]
				} else if len(model) != 0 {
					return false
				}
			}
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
