package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// clock is the run's time base: nanoseconds since the process chose
// its epoch, one monotonic clock read per call.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// pad keeps one goroutine's counters off its neighbours' cache lines.
type pad [56]byte

// counters is what one load goroutine publishes for the window
// sampler. Only the owning goroutine writes; the sampler reads.
type counters struct {
	ops       atomic.Uint64 // completed and verified
	attempted atomic.Uint64
	failed    atomic.Uint64 // error, deadline miss or wrong bytes
	bytes     atomic.Uint64 // payload bytes delivered to a receiving app
	copied    atomic.Uint64 // payload bytes copied in or out of the stack by this goroutine
	_         pad
}

// samples is an append-only log of durations (ns) written by one
// goroutine. The sampler reads n at window boundaries; the contents
// are read only after the writer has stopped. Chunks keep growth from
// ever copying what was recorded.
type samples struct {
	chunks [][]uint32
	n      atomic.Uint64
	_      pad
}

const sampleChunk = 1 << 16

func (s *samples) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns > int64(^uint32(0)) {
		ns = int64(^uint32(0)) // 4.29 s; deadlines are 1 s
	}
	n := s.n.Load()
	if int(n/sampleChunk) == len(s.chunks) {
		s.chunks = append(s.chunks, make([]uint32, sampleChunk))
	}
	s.chunks[n/sampleChunk][n%sampleChunk] = uint32(ns)
	s.n.Store(n + 1)
}

// slice copies samples [from, to) out as float64 nanoseconds.
func (s *samples) slice(dst []float64, from, to uint64) []float64 {
	for i := from; i < to; i++ {
		dst = append(dst, float64(s.chunks[i/sampleChunk][i%sampleChunk]))
	}
	return dst
}

// Span names. A span is one call the benchmark made into a layer (or
// an interval between two such calls); spans of one op share its id.
const (
	spanOp      = "op"           // root: request due/issued -> response verified (bulk: one chunk Write)
	spanGenWait = "harness.wait" // rpc_paced: due -> generator actually sends
	spanSend    = "libtas.send"  // Conn.Write
	spanRecv    = "libtas.recv"  // Conn.Read, blocking
	spanHandle  = "app.handle"   // server: request read -> response written
	spanDial    = "slowpath.dial"
)

// span is one recorded interval. parent names the enclosing span of
// the same op ("" for the root); side is which service's app made the
// call.
type span struct {
	op         uint64
	name       string
	parent     string
	side       string
	start, end int64
}

// spanLog is one goroutine's in-memory span buffer.
type spanLog struct {
	spans []span
	_     pad
}

func (l *spanLog) add(op uint64, name, parent, side string, start, end int64) {
	l.spans = append(l.spans, span{op, name, parent, side, start, end})
}

// traceEvery is the span sampling period: one op in this many is
// traced, on both sides, with no coordination beyond the id riding in
// the payload.
const traceEvery = 16

// spanFileCap bounds the span file; every span still counts towards
// the per-layer numbers.
const spanFileCap = 50000

// dialOpBase starts the id range of set-up Dial spans, which belong
// to no op.
const dialOpBase = 1 << 63

// spanSummary is what the per-layer metrics need from the spans.
type spanSummary struct {
	sendNs []float64 // durations of libtas.send, both sides
	recvNs []float64 // self time of the client's libtas.recv; server Read durations when clients never read
	dialNs []float64
}

// summarize joins spans by op id, computes self times (duration minus
// the part covered by child spans of the same op), and writes the
// first spanFileCap spans to path, one line each.
func summarize(logs []*spanLog, path string) (spanSummary, error) {
	var all []span
	for _, l := range logs {
		all = append(all, l.spans...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].op != all[j].op {
			return all[i].op < all[j].op
		}
		return all[i].start < all[j].start
	})
	var sum spanSummary
	var serverRecv []float64
	self := make([]int64, len(all))
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].op == all[i].op {
			j++
		}
		for k, s := range all[i:j] {
			d := s.end - s.start
			for _, c := range all[i:j] {
				if c.parent == s.name && c.name != s.name {
					if lo, hi := max(c.start, s.start), min(c.end, s.end); hi > lo {
						d -= hi - lo
					}
				}
			}
			self[i+k] = d
			switch {
			case s.name == spanSend:
				sum.sendNs = append(sum.sendNs, float64(s.end-s.start))
			case s.name == spanRecv && s.side == "client":
				sum.recvNs = append(sum.recvNs, float64(d))
			case s.name == spanRecv:
				serverRecv = append(serverRecv, float64(s.end-s.start))
			case s.name == spanDial:
				sum.dialNs = append(sum.dialNs, float64(s.end-s.start))
			}
		}
		i = j
	}
	if len(sum.recvNs) == 0 {
		sum.recvNs = serverRecv
	}
	if path == "" {
		return sum, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return sum, fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return sum, fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tside\tstart_ns\tend_ns\tself_ns")
	for i, s := range all {
		if i == spanFileCap {
			break
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%d\t%d\t%d\n", s.op, s.name, s.parent, s.side, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return sum, fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return sum, fmt.Errorf("span file: %w", err)
	}
	return sum, nil
}
