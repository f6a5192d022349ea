package kv

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
)

func TestStoreBasics(t *testing.T) {
	st := NewStore(8)
	if _, ok := st.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
	st.Set([]byte("k"), []byte("v1"))
	v, ok := st.Get([]byte("k"))
	if !ok || string(v) != "v1" {
		t.Fatalf("got %q %v", v, ok)
	}
	st.Set([]byte("k"), []byte("v2"))
	if v, _ := st.Get([]byte("k")); string(v) != "v2" {
		t.Fatal("overwrite failed")
	}
	if st.Len() != 1 {
		t.Fatalf("len = %d", st.Len())
	}
}

func TestStoreValueIsolation(t *testing.T) {
	st := NewStore(1)
	val := []byte("abc")
	st.Set([]byte("k"), val)
	val[0] = 'X' // caller mutation must not leak in
	v, _ := st.Get([]byte("k"))
	if string(v) != "abc" {
		t.Fatal("Set must copy the value")
	}
	v[0] = 'Y' // reader mutation must not leak back
	v2, _ := st.Get([]byte("k"))
	if string(v2) != "abc" {
		t.Fatal("Get must return a copy")
	}
}

func TestStoreConcurrent(t *testing.T) {
	st := NewStore(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := []byte{byte(g)}
			for i := 0; i < 5000; i++ {
				st.Set(key, []byte{byte(i)})
				if v, ok := st.Get(key); !ok || len(v) != 1 {
					t.Error("bad read")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// pipe is an in-memory full-duplex byte stream for protocol tests.
type pipe struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func (p pipe) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p pipe) Write(b []byte) (int, error) { return p.w.Write(b) }

func duplex() (pipe, pipe) {
	r1, w1 := io.Pipe()
	r2, w2 := io.Pipe()
	return pipe{r1, w2}, pipe{r2, w1}
}

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{Op: OpSet, Key: []byte("hello"), Value: []byte("world")}
	if err := WriteRequest(&buf, &req); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := ReadRequest(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != OpSet || string(got.Key) != "hello" || string(got.Value) != "world" {
		t.Fatalf("round trip: %+v", got)
	}

	resp := Response{Status: StatusOK, Value: []byte("xyz")}
	if err := WriteResponse(&buf, &resp); err != nil {
		t.Fatal(err)
	}
	var gotR Response
	if err := ReadResponse(&buf, &gotR); err != nil {
		t.Fatal(err)
	}
	if gotR.Status != StatusOK || string(gotR.Value) != "xyz" {
		t.Fatalf("resp round trip: %+v", gotR)
	}
}

func TestProtocolRejectsBadOp(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{99, 0, 0, 0, 0, 0, 0})
	var req Request
	if err := ReadRequest(&buf, &req); err != ErrProtocol {
		t.Fatalf("err = %v", err)
	}
}

func TestServeConnEndToEnd(t *testing.T) {
	st := NewStore(4)
	serverSide, clientSide := duplex()
	go ServeConn(serverSide, st)
	c := NewClient(clientSide)

	if err := c.Set([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get([]byte("alpha"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	_, ok, err = c.Get([]byte("beta"))
	if err != nil || ok {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
}

func TestHandle(t *testing.T) {
	st := NewStore(1)
	r := Handle(st, &Request{Op: OpSet, Key: []byte("k"), Value: []byte("v")})
	if r.Status != StatusOK {
		t.Fatal("set status")
	}
	r = Handle(st, &Request{Op: OpGet, Key: []byte("k")})
	if r.Status != StatusOK || string(r.Value) != "v" {
		t.Fatal("get")
	}
	r = Handle(st, &Request{Op: OpGet, Key: []byte("nope")})
	if r.Status != StatusNotFound {
		t.Fatal("not found")
	}
	r = Handle(st, &Request{Op: 77})
	if r.Status != StatusErr {
		t.Fatal("bad op")
	}
}

func TestWorkloadShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewWorkload(rng, 100_000, 32, 64, 0.9, 0.9) // §5.3: 32 B keys, 64 B values, zipf 0.9, 90% GETs
	gets, sets := 0, 0
	keyCounts := make(map[string]int)
	for i := 0; i < 20000; i++ {
		r := w.Next()
		if len(r.Key) != 32 {
			t.Fatalf("key size %d", len(r.Key))
		}
		switch r.Op {
		case OpGet:
			gets++
		case OpSet:
			sets++
			if len(r.Value) != 64 {
				t.Fatalf("value size %d", len(r.Value))
			}
		}
		keyCounts[string(r.Key)]++
	}
	frac := float64(gets) / float64(gets+sets)
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("GET fraction = %v, want ~0.9", frac)
	}
	// Skew: the most popular key should appear far more than 1/100000.
	max := 0
	for _, c := range keyCounts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Fatalf("hottest key only %d/20000 — no zipf skew?", max)
	}
}

func TestWorkloadPreload(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWorkload(rng, 500, 16, 8, 0.9, 1.0)
	st := NewStore(4)
	w.Preload(st)
	if st.Len() != 500 {
		t.Fatalf("preloaded %d", st.Len())
	}
	// Every generated GET must hit.
	for i := 0; i < 1000; i++ {
		r := w.Next()
		if _, ok := st.Get(r.Key); !ok {
			t.Fatal("workload key missing after preload")
		}
	}
}
