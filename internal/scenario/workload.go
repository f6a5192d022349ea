package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"time"

	tas "repro"
	"repro/internal/apps/echo"
)

// Workload kinds.
const (
	WorkStream = "stream" // length-prefixed bulk transfers, SHA-256 verified end to end
	WorkRPC    = "rpc"    // fixed-size echo RPCs
)

// Workload describes the traffic mix every client service generates
// against the server.
type Workload struct {
	Kind  string `json:"kind"`            // "stream" or "rpc"
	Conns int    `json:"conns,omitempty"` // concurrent workers per client (default 1)

	// Stream parameters.
	TransferBytes int  `json:"transfer_bytes,omitempty"` // bytes per transfer (default 128 KiB)
	Transfers     int  `json:"transfers,omitempty"`      // transfers per worker (default 1)
	Reconnect     bool `json:"reconnect,omitempty"`      // new connection per transfer (churn)
	ChunkBytes    int  `json:"chunk_bytes,omitempty"`    // write granularity (default 16 KiB)

	// RPC parameters.
	MsgBytes     int `json:"msg_bytes,omitempty"`      // request/response size (default 128)
	Calls        int `json:"calls,omitempty"`          // total calls per worker (default 100)
	CallsPerConn int `json:"calls_per_conn,omitempty"` // reconnect after this many (default Calls: no churn)

	// Stream server misbehavior (zero-window scenarios): ServerStall
	// makes the stream server stop reading for this long after it has
	// consumed a connection's first length header, so the sender fills
	// the receive buffer and wedges against a zero window.
	// StallFirstConnOnly restricts the stall to the first connection
	// the server accepts, so a sender that gives the wedged peer up
	// lands its retry on a healthy handler.
	ServerStall        Duration `json:"server_stall,omitempty"`
	StallFirstConnOnly bool     `json:"stall_first_conn_only,omitempty"`
}

// workloadKind is one workload kind: its defaults, how many ops a worker
// runs and how many share a connection, what the server does with an
// accepted connection, and one op of a client worker.
type workloadKind struct {
	fill  func(w *Workload)
	ops   func(w Workload) (n, perConn int)
	serve func(r *run, c *tas.Conn)
	// op returns op's record (payload identity) and the call that runs
	// it on a connection: (intact, nil) when done, else an error that
	// forces a redial.
	op func(r *run, client, worker, op int) (OpRecord, func(*tas.Conn) (bool, error))
}

var workloadKinds = map[string]workloadKind{
	WorkStream: {
		fill: func(w *Workload) {
			if w.TransferBytes <= 0 {
				w.TransferBytes = 128 << 10
			}
			if w.Transfers <= 0 {
				w.Transfers = 1
			}
			if w.ChunkBytes <= 0 {
				w.ChunkBytes = 16 << 10
			}
		},
		ops: func(w Workload) (int, int) {
			if w.Reconnect {
				return w.Transfers, 1
			}
			return w.Transfers, w.Transfers
		},
		serve: (*run).serveStream,
		op: func(r *run, client, worker, op int) (OpRecord, func(*tas.Conn) (bool, error)) {
			payload, sum := r.payload(client, worker, op)
			rec := OpRecord{SHA: hex.EncodeToString(sum[:]), Bytes: len(payload)}
			return rec, func(c *tas.Conn) (bool, error) { return r.doTransfer(c, payload, sum) }
		},
	},
	WorkRPC: {
		fill: func(w *Workload) {
			if w.MsgBytes <= 0 {
				w.MsgBytes = 128
			}
			if w.Calls <= 0 {
				w.Calls = 100
			}
			if w.CallsPerConn <= 0 || w.CallsPerConn > w.Calls {
				w.CallsPerConn = w.Calls
			}
		},
		ops: func(w Workload) (int, int) { return w.Calls, w.CallsPerConn },
		serve: func(r *run, c *tas.Conn) {
			defer c.Close()
			echo.Serve(timeoutRW{c}, r.spec.Workload.MsgBytes)
		},
		op: func(r *run, _, _, _ int) (OpRecord, func(*tas.Conn) (bool, error)) {
			n := r.spec.Workload.MsgBytes
			return OpRecord{Bytes: n}, func(c *tas.Conn) (bool, error) {
				err := echo.NewClient(timeoutRW{c}, n).Call() // Call verifies the echo
				return err == nil, err
			}
		},
	},
}

// fill checks the workload kind and applies the workload's defaults;
// Validate calls it before anything that reads one.
func (w *Workload) fill() error {
	k, ok := workloadKinds[w.Kind]
	if !ok {
		return specErr(ErrUnknownKind, "workload.kind", "unknown workload kind %q (want %q or %q)",
			w.Kind, WorkStream, WorkRPC)
	}
	if w.Conns <= 0 {
		w.Conns = 1
	}
	k.fill(w)
	return nil
}

func (w *Workload) validate() error {
	if w.ServerStall < 0 {
		return specErr(ErrBadSpec, "workload.server_stall", "negative stall %v", w.ServerStall.D())
	}
	if w.ServerStall > 0 && w.Kind != WorkStream {
		return specErr(ErrBadSpec, "workload.server_stall", "server stalls apply to stream workloads only")
	}
	if w.StallFirstConnOnly && w.ServerStall == 0 {
		return specErr(ErrBadSpec, "workload.stall_first_conn_only", "needs a positive server_stall")
	}
	return nil
}

// ExpectedOps returns the total operations the workload schedules
// (transfers for streams, calls for RPC) across all clients.
func (s *Spec) ExpectedOps() int {
	k, ok := workloadKinds[s.Workload.Kind]
	if !ok {
		return 0
	}
	n, _ := k.ops(s.Workload)
	return s.Topology.Clients * s.Workload.Conns * n
}

// --- payloads ---------------------------------------------------------

// payloadSeed mixes the scenario seed with an op's identity; every
// random byte in the run is derived from it, so payload digests are
// part of the reproducible report.
func payloadSeed(seed int64, client, worker, op int) int64 {
	return seed + int64(client)*1_000_003 + int64(worker)*10_007 + int64(op)*101 + 1
}

func (r *run) payload(client, worker, op int) ([]byte, [32]byte) {
	b := make([]byte, r.spec.Workload.TransferBytes)
	rand.New(rand.NewSource(payloadSeed(r.spec.Seed, client, worker, op))).Read(b)
	return b, sha256.Sum256(b)
}

// --- client workers ---------------------------------------------------

var errStopped = errors.New("scenario: run stopped")

// worker runs one client worker's ops in order. An op is retried until
// it completes or the run stops: a failed dial or call backs off and
// redials, rebuilding the worker's app context when the stack reports
// it dead.
func (r *run) worker(client, worker int) {
	kind := workloadKinds[r.spec.Workload.Kind]
	n, perConn := kind.ops(r.spec.Workload)
	var conn *tas.Conn
	onConn := 0 // ops completed on conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for op := 0; op < n; op++ {
		rec, call := kind.op(r, client, worker, op)
		rec.Client, rec.Worker, rec.Op = client, worker, op
		if conn != nil && onConn >= perConn {
			conn.Close()
			conn, onConn = nil, 0
		}
		for !r.stopped() {
			rec.Attempts++
			var err error
			if conn == nil {
				conn, err = r.freshCtx(client, worker, false).DialTimeout("10.0.0.1", serverPort, opTimeout)
			}
			if err == nil {
				if rec.Intact, err = call(conn); err == nil {
					rec.Done = true
					onConn++
					break
				}
				conn.Close()
				conn, onConn = nil, 0
			}
			if tas.ErrAppDead(err) {
				r.freshCtx(client, worker, true)
			}
			r.mu.Lock()
			r.retries++
			r.mu.Unlock()
			if !r.sleep(25 * time.Millisecond) { // a deterministic retry interval
				break
			}
		}
		r.mu.Lock()
		r.ops = append(r.ops, rec)
		r.mu.Unlock()
		if !rec.Done {
			return // run stopped; remaining ops are unrecorded = failed
		}
	}
}

// freshCtx replaces (or lazily creates) a worker's app context. Only
// the worker stores its slot; an app fault reads whichever context is
// live.
func (r *run) freshCtx(client, worker int, rebuild bool) *tas.Context {
	slot := &r.slots[client][worker]
	ctx := slot.Load()
	if ctx == nil || rebuild {
		if ctx != nil {
			r.mu.Lock()
			r.appRestarts++
			r.mu.Unlock()
		}
		ctx = r.clients[client].NewContext()
		slot.Store(ctx)
	}
	return ctx
}

// --- streams ----------------------------------------------------------

// patient is a stream connection whose bounded reads and writes retry
// their timeouts until the run stops. Every attempt checks for the stop
// first: against a slow link a transfer makes continuous partial
// progress and would otherwise never observe the duration cap. Any other
// error (EOF, reset, app dead) ends the call.
type patient struct {
	r *run
	c *tas.Conn
}

func (p patient) Read(b []byte) (int, error) { return p.try(b, p.c.ReadTimeout) }

// Write writes all of b.
func (p patient) Write(b []byte) (int, error) {
	for n := 0; n < len(b); {
		m, err := p.try(b[n:], p.c.WriteTimeout)
		n += m
		if err != nil {
			return n, err
		}
	}
	return len(b), nil
}

func (p patient) try(b []byte, op func([]byte, time.Duration) (int, error)) (int, error) {
	for !p.r.stopped() {
		n, err := op(b, opTimeout)
		if err == nil || !tas.ErrTimeout(err) {
			return n, err
		}
		if n > 0 {
			return n, nil // progress; the caller asks for the rest
		}
	}
	return 0, errStopped
}

// doTransfer sends one length-prefixed payload and checks the server's
// digest. Returns (intact, nil) on completion, or an error that forces
// a reconnect.
func (r *run) doTransfer(c *tas.Conn, payload []byte, want [32]byte) (bool, error) {
	p := patient{r, c}
	if _, err := p.Write(binary.BigEndian.AppendUint64(nil, uint64(len(payload)))); err != nil {
		return false, err
	}
	chunk := r.spec.Workload.ChunkBytes
	for off := 0; off < len(payload); off += chunk {
		if _, err := p.Write(payload[off:min(off+chunk, len(payload))]); err != nil {
			return false, err
		}
	}
	var got [32]byte
	if _, err := io.ReadFull(p, got[:]); err != nil {
		return false, err
	}
	return got == want, nil
}

// serveStream answers length-prefixed transfers with their SHA-256.
// With Workload.ServerStall set, it wedges — stops reading — for that
// long right after consuming the connection's first length header, so
// the sender piles the body up against a zero window.
func (r *run) serveStream(c *tas.Conn) {
	defer c.Close()
	w := r.spec.Workload
	stall := w.ServerStall.D()
	if stall > 0 && w.StallFirstConnOnly {
		r.mu.Lock()
		if r.stallUsed {
			stall = 0 // only the first accepted connection wedges
		}
		r.stallUsed = true
		r.mu.Unlock()
	}
	p := patient{r, c}
	hdr := make([]byte, 8)
	for {
		if _, err := io.ReadFull(p, hdr); err != nil {
			return
		}
		n := binary.BigEndian.Uint64(hdr)
		if n == 0 || n > 1<<30 {
			return
		}
		if stall > 0 {
			r.sleep(stall)
			stall = 0 // only the first transfer wedges
		}
		h := sha256.New()
		if _, err := io.CopyN(h, p, int64(n)); err != nil {
			return
		}
		if _, err := c.WriteTimeout(h.Sum(nil), opTimeout); err != nil {
			return
		}
	}
}

// timeoutRW adapts a connection to io.ReadWriter with bounded ops for
// the echo application.
type timeoutRW struct{ c *tas.Conn }

func (t timeoutRW) Read(p []byte) (int, error)  { return t.c.ReadTimeout(p, opTimeout) }
func (t timeoutRW) Write(p []byte) (int, error) { return t.c.WriteTimeout(p, opTimeout) }
