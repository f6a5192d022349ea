package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"
)

const (
	rpcSize   = 64
	chunkSize = 64 << 10
	bulkRead  = 256 << 10
	pacedRate = 20000 // req/s, fixed: ~15% of rpc_small's saturation at the seed commit
)

// transport is the part of *tas.Conn the load goroutines call. The
// second implementation is the stub behind harness.null_op_ns.
type transport interface {
	WriteTimeout(p []byte, d time.Duration) (int, error)
	ReadTimeout(p []byte, d time.Duration) (int, error)
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Close() error
}

// opID packs a per-connection sequence number, the epoch and the
// connection index (16 of each at most), so ids are unique in a run.
// The id rides in the first 8 bytes of every request and chunk, so
// both sides agree on which ops are traced without talking.
func (l *load) opID(conn int, seq uint64) uint64 {
	return seq<<8 | uint64(l.epoch)<<4 | uint64(conn)
}

// tracedOp reports whether spans are recorded for op id: one
// sequence number in traceEvery.
func tracedOp(id uint64) bool { return (id>>8)%traceEvery == 0 }

// fillRequest writes op id's 64 request bytes: the id, then words
// drawn from the seed and the id. Nothing in the product reads the
// seed; it sees only these bytes.
func fillRequest(buf []byte, seed, id uint64) {
	binary.LittleEndian.PutUint64(buf, id)
	x := seed ^ id*0x9E3779B97F4A7C15
	for i := 8; i < rpcSize; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(buf[i:], z^z>>31)
	}
}

// gen is one load goroutine's published state.
type gen struct {
	counters
	lat   samples // op latency, ns
	late  samples // rpc_paced: generator lateness, ns
	spans spanLog
	died  atomic.Bool // gave up before being told to stop

	server bool // a server-side goroutine: its bytes are what was delivered one way

	outstandingMax atomic.Int64
}

// load is what the goroutines of one run share.
type load struct {
	clk   clock
	seed  uint64
	epoch int
	trace bool
	stop  atomic.Bool
}

// echoServer is the server side of the RPC workloads: read, write the
// same bytes back. It returns when the client closes.
func (l *load) echoServer(c transport, g *gen) {
	buf := make([]byte, 4096)
	var off uint64 // stream offset of buf[0]
	for {
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		g.bytes.Add(uint64(n))
		g.copied.Add(2 * uint64(n))
		// The first request that starts in this read stands for it.
		var id uint64
		var t0 int64
		spanned := false
		if l.trace {
			if at := int((rpcSize - off%rpcSize) % rpcSize); at+8 <= n {
				if id = binary.LittleEndian.Uint64(buf[at:]); tracedOp(id) {
					spanned, t0 = true, l.clk.now()
				}
			}
		}
		if _, err := c.Write(buf[:n]); err != nil {
			return
		}
		if spanned {
			t1 := l.clk.now()
			g.spans.add(id, spanHandle, spanRecv, "server", t0, t1)
			g.spans.add(id, spanSend, spanHandle, "server", t0, t1)
		}
		off += uint64(n)
	}
}

// readResponse reads until resp holds the whole 64 B response to id,
// skipping any response to an op that already missed its deadline.
func readResponse(c transport, resp []byte, id uint64, deadline time.Time) error {
	for {
		for got := 0; got < rpcSize; {
			n, err := c.ReadTimeout(resp[got:], time.Until(deadline))
			if err != nil {
				return err
			}
			got += n
		}
		if binary.LittleEndian.Uint64(resp) >= id {
			return nil
		}
	}
}

// closedClient is one closed-loop RPC connection: write 64 B, read 64 B
// back, compare, repeat.
func (l *load) closedClient(c transport, conn int, g *gen) {
	defer c.Close()
	req, resp := make([]byte, rpcSize), make([]byte, rpcSize)
	for seq := uint64(0); !l.stop.Load(); seq++ {
		id := l.opID(conn, seq)
		fillRequest(req, l.seed, id)
		g.attempted.Add(1)
		t0 := l.clk.now()
		_, err := c.WriteTimeout(req, opDeadline)
		var tw int64
		spanned := l.trace && tracedOp(id)
		if spanned {
			tw = l.clk.now()
		}
		if err == nil {
			err = readResponse(c, resp, id, l.clk.epoch.Add(time.Duration(t0)+opDeadline))
		}
		t1 := l.clk.now()
		if err != nil || t1-t0 > int64(opDeadline) || !bytes.Equal(req, resp) {
			g.failed.Add(1)
			if err != nil && !isTimeout(err) {
				g.died.Store(true)
				return
			}
			continue
		}
		g.lat.add(t1 - t0)
		g.bytes.Add(rpcSize)
		g.copied.Add(2 * rpcSize)
		g.ops.Add(1)
		if spanned {
			g.spans.add(id, spanOp, "", "client", t0, t1)
			g.spans.add(id, spanSend, spanOp, "client", t0, tw)
			g.spans.add(id, spanRecv, spanOp, "client", tw, t1)
		}
	}
}

// paced is the open-loop generator's state, shared by its sender and
// receiver goroutines: when each request was due and, for traced ops,
// when its Write returned.
type paced struct {
	due, sent []atomic.Int64
	issued    atomic.Uint64 // requests written so far
	done      atomic.Uint64 // responses verified or given up on
	senderEnd atomic.Bool
}

func newPaced(seconds float64) *paced {
	n := int(seconds*pacedRate*1.5) + 1024
	return &paced{due: make([]atomic.Int64, n), sent: make([]atomic.Int64, n)}
}

// pacedSender issues requests on a seeded Poisson schedule, whatever
// the stack does: a stall makes it late, and every request is timed
// from when it was due, so later requests pay for the stall.
func (l *load) pacedSender(c transport, p *paced, g *gen) {
	defer p.senderEnd.Store(true)
	rng := rand.New(rand.NewSource(int64(l.seed) + int64(l.epoch))) // a fresh schedule per epoch
	req := make([]byte, rpcSize)
	due := l.clk.now()
	for seq := uint64(0); !l.stop.Load() && int(seq) < len(p.due); seq++ {
		due += int64(rng.ExpFloat64() * 1e9 / pacedRate)
		now := l.clk.now()
		for now < due && !l.stop.Load() {
			// Sleeping is too coarse for a 50 us mean gap; yield instead.
			if due-now > int64(2*time.Millisecond) {
				time.Sleep(time.Millisecond)
			} else {
				runtime.Gosched()
			}
			now = l.clk.now()
		}
		id := l.opID(0, seq)
		fillRequest(req, l.seed, id)
		p.due[seq].Store(due)
		g.late.add(now - due)
		g.attempted.Add(1)
		_, err := c.WriteTimeout(req, opDeadline)
		if err != nil {
			// The stream is cut mid-request; nothing after it can be matched.
			g.failed.Add(1)
			g.died.Store(true)
			return
		}
		if l.trace && tracedOp(id) {
			t := l.clk.now()
			p.sent[seq].Store(t)
			g.spans.add(id, spanGenWait, spanOp, "client", due, now)
			g.spans.add(id, spanSend, spanOp, "client", now, t)
		}
		p.issued.Store(seq + 1)
		if out := int64(seq + 1 - p.done.Load()); out > g.outstandingMax.Load() {
			g.outstandingMax.Store(out)
		}
	}
}

// pacedReceiver reads responses as they come, in order, and times each
// from its due time. It returns once the sender has ended and every
// response is in or a deadline has passed with nothing arriving.
func (l *load) pacedReceiver(c transport, p *paced, g *gen) {
	defer c.Close()
	buf := make([]byte, 4096)
	want := make([]byte, rpcSize)
	have := 0
	for seq := uint64(0); ; {
		if p.senderEnd.Load() && seq == p.issued.Load() {
			return
		}
		var r0 int64
		if l.trace {
			r0 = l.clk.now()
		}
		n, err := c.ReadTimeout(buf[have:], opDeadline)
		if err != nil {
			if isTimeout(err) && !p.senderEnd.Load() {
				continue // quiet second, not a failure
			}
			g.failed.Add(p.issued.Load() - seq)
			g.died.Store(!isTimeout(err))
			return
		}
		t1 := l.clk.now()
		have += n
		at := 0
		for ; have-at >= rpcSize; at += rpcSize {
			id := l.opID(0, seq)
			fillRequest(want, l.seed, id)
			due := p.due[seq].Load()
			if t1-due > int64(opDeadline) || !bytes.Equal(want, buf[at:at+rpcSize]) {
				g.failed.Add(1)
			} else {
				g.lat.add(t1 - due)
				g.bytes.Add(rpcSize)
				g.copied.Add(2 * rpcSize)
				g.ops.Add(1)
				if l.trace && tracedOp(id) {
					g.spans.add(id, spanOp, "", "client", due, t1)
					g.spans.add(id, spanRecv, spanOp, "client", max(r0, p.sent[seq].Load()), t1)
				}
			}
			seq++
			p.done.Store(seq)
		}
		have = copy(buf, buf[at:have])
	}
}

// bulkClient streams 64 KiB chunks one way. The first 8 bytes of each
// chunk carry its id; the rest is seeded noise that never changes.
func (l *load) bulkClient(c transport, conn int, g *gen) {
	defer c.Close()
	chunk := make([]byte, chunkSize)
	rand.New(rand.NewSource(int64(l.seed) + int64(conn))).Read(chunk)
	for seq := uint64(0); !l.stop.Load(); seq++ {
		id := l.opID(conn, seq)
		binary.LittleEndian.PutUint64(chunk, id)
		g.attempted.Add(1)
		t0 := l.clk.now()
		_, err := c.WriteTimeout(chunk, opDeadline)
		t1 := l.clk.now()
		if err != nil || t1-t0 > int64(opDeadline) {
			// A partial chunk leaves the stream unframed.
			g.failed.Add(1)
			g.died.Store(true)
			return
		}
		g.lat.add(t1 - t0)
		g.copied.Add(chunkSize) // ops are counted by the server, on delivery
		if l.trace && tracedOp(id) {
			g.spans.add(id, spanOp, "", "client", t0, t1)
			g.spans.add(id, spanSend, spanOp, "client", t0, t1)
		}
	}
}

// bulkServer reads the stream with a 256 KiB buffer until the client
// closes, checking every chunk's stamp where it must be in the byte
// stream: a lost, repeated or misplaced byte shifts every later stamp.
func (l *load) bulkServer(c transport, conn int, g *gen) {
	buf := make([]byte, bulkRead)
	var stamp [8]byte
	pos := 0 // offset inside the current chunk
	for seq := uint64(0); ; {
		var r0 int64
		if l.trace {
			r0 = l.clk.now()
		}
		n, err := c.Read(buf)
		if err != nil {
			if pos != 0 {
				g.failed.Add(1) // stream ended inside a chunk
			}
			return
		}
		var r1 int64
		if l.trace {
			r1 = l.clk.now()
		}
		g.bytes.Add(uint64(n))
		g.copied.Add(uint64(n))
		for b := buf[:n]; len(b) > 0; {
			if pos < len(stamp) {
				k := copy(stamp[pos:], b)
				pos, b = pos+k, b[k:]
				if pos == len(stamp) && binary.LittleEndian.Uint64(stamp[:]) != l.opID(conn, seq) {
					g.failed.Add(1)
				}
				continue
			}
			k := min(len(b), chunkSize-pos)
			pos, b = pos+k, b[k:]
			if pos == chunkSize {
				g.ops.Add(1)
				if id := l.opID(conn, seq); l.trace && tracedOp(id) {
					g.spans.add(id, spanRecv, spanOp, "server", r0, r1)
				}
				pos, seq = 0, seq+1
			}
		}
	}
}
