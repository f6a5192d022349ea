// Package kv implements the evaluation's key-value store application
// (§5.3), modeled after memcached: a sharded in-memory store, a compact
// binary request/response protocol, a server loop that runs over any
// io.ReadWriter (a TAS connection or net.Conn), a client, and the
// memslap-style workload generator (zipf-distributed keys, 90/10
// GET/SET).
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/stats"
)

// Store is a sharded in-memory key-value store. Shards use RW mutexes;
// with a skewed workload hitting a single hot key, writers serialize on
// one shard lock — the non-scalable workload of Table 7.
type Store struct {
	shards []shard
}

type shard struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewStore creates a store with the given shard count (rounded up to at
// least 1).
func NewStore(nshards int) *Store {
	if nshards < 1 {
		nshards = 1
	}
	s := &Store{shards: make([]shard, nshards)}
	for i := range s.shards {
		s.shards[i].m = make(map[string][]byte)
	}
	return s
}

func (s *Store) shardFor(key []byte) *shard {
	h := fnv.New32a()
	h.Write(key)
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Get returns a copy of the value for key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Set stores a copy of value under key.
func (s *Store) Set(key, value []byte) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.m[string(key)] = append([]byte(nil), value...)
	sh.mu.Unlock()
}

// Len returns the total number of keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].m)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// Protocol operations.
const (
	OpGet = 1
	OpSet = 2

	StatusOK       = 0
	StatusNotFound = 1
	StatusErr      = 2
)

// Request is one KV operation.
type Request struct {
	Op    byte
	Key   []byte
	Value []byte // Set only
}

// Response is the server's answer.
type Response struct {
	Status byte
	Value  []byte // Get hits only
}

// ErrProtocol reports a malformed frame.
var ErrProtocol = errors.New("kv: protocol error")

// WriteRequest encodes a request: [op:1][klen:2][vlen:4][key][value].
func WriteRequest(w io.Writer, r *Request) error {
	if len(r.Key) > 0xffff {
		return fmt.Errorf("kv: key too long (%d)", len(r.Key))
	}
	hdr := make([]byte, 7, 7+len(r.Key)+len(r.Value))
	hdr[0] = r.Op
	binary.BigEndian.PutUint16(hdr[1:], uint16(len(r.Key)))
	binary.BigEndian.PutUint32(hdr[3:], uint32(len(r.Value)))
	buf := append(hdr, r.Key...)
	buf = append(buf, r.Value...)
	_, err := w.Write(buf)
	return err
}

// ReadRequest decodes one request.
func ReadRequest(r io.Reader, req *Request) error {
	var hdr [7]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	req.Op = hdr[0]
	klen := int(binary.BigEndian.Uint16(hdr[1:]))
	vlen := int(binary.BigEndian.Uint32(hdr[3:]))
	if req.Op != OpGet && req.Op != OpSet {
		return ErrProtocol
	}
	if vlen > 16<<20 {
		return ErrProtocol
	}
	req.Key = make([]byte, klen)
	if _, err := io.ReadFull(r, req.Key); err != nil {
		return err
	}
	req.Value = make([]byte, vlen)
	if _, err := io.ReadFull(r, req.Value); err != nil {
		return err
	}
	return nil
}

// WriteResponse encodes a response: [status:1][vlen:4][value].
func WriteResponse(w io.Writer, resp *Response) error {
	hdr := make([]byte, 5, 5+len(resp.Value))
	hdr[0] = resp.Status
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(resp.Value)))
	_, err := w.Write(append(hdr, resp.Value...))
	return err
}

// ReadResponse decodes one response.
func ReadResponse(r io.Reader, resp *Response) error {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	resp.Status = hdr[0]
	vlen := int(binary.BigEndian.Uint32(hdr[1:]))
	if vlen > 16<<20 {
		return ErrProtocol
	}
	resp.Value = make([]byte, vlen)
	_, err := io.ReadFull(r, resp.Value)
	return err
}

// Handle executes one request against the store.
func Handle(st *Store, req *Request) Response {
	switch req.Op {
	case OpGet:
		if v, ok := st.Get(req.Key); ok {
			return Response{Status: StatusOK, Value: v}
		}
		return Response{Status: StatusNotFound}
	case OpSet:
		st.Set(req.Key, req.Value)
		return Response{Status: StatusOK}
	default:
		return Response{Status: StatusErr}
	}
}

// ServeConn processes requests from rw until EOF or error.
func ServeConn(rw io.ReadWriter, st *Store) error {
	var req Request
	for {
		if err := ReadRequest(rw, &req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		resp := Handle(st, &req)
		if err := WriteResponse(rw, &resp); err != nil {
			return err
		}
	}
}

// Client issues KV operations over a connection.
type Client struct {
	rw io.ReadWriter
}

// NewClient wraps a connection.
func NewClient(rw io.ReadWriter) *Client { return &Client{rw: rw} }

// Get fetches a key.
func (c *Client) Get(key []byte) ([]byte, bool, error) {
	if err := WriteRequest(c.rw, &Request{Op: OpGet, Key: key}); err != nil {
		return nil, false, err
	}
	var resp Response
	if err := ReadResponse(c.rw, &resp); err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Status == StatusOK, nil
}

// Set stores a key.
func (c *Client) Set(key, value []byte) error {
	if err := WriteRequest(c.rw, &Request{Op: OpSet, Key: key, Value: value}); err != nil {
		return err
	}
	var resp Response
	if err := ReadResponse(c.rw, &resp); err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("kv: set failed (status %d)", resp.Status)
	}
	return nil
}

// Workload generates the paper's §5.3 access pattern: NumKeys keys of
// KeySize bytes with ValueSize-byte values, zipf(Skew) popularity, and
// GetFraction reads.
type Workload struct {
	NumKeys     int
	KeySize     int
	ValueSize   int
	Skew        float64
	GetFraction float64

	rng  *rand.Rand
	zipf *stats.Zipf
	val  []byte
}

// NewWorkload builds a custom workload.
func NewWorkload(rng *rand.Rand, numKeys, keySize, valueSize int, skew, getFrac float64) *Workload {
	w := &Workload{NumKeys: numKeys, KeySize: keySize, ValueSize: valueSize, Skew: skew, GetFraction: getFrac, rng: rng}
	w.init()
	return w
}

func (w *Workload) init() {
	w.zipf = stats.NewZipf(w.rng, w.Skew, w.NumKeys)
	w.val = make([]byte, w.ValueSize)
	for i := range w.val {
		w.val[i] = byte('a' + i%26)
	}
}

// Key materializes the key for a rank: "key-<rank>" padded with 'x' to
// KeySize (which must be large enough to hold the rank digits).
func (w *Workload) Key(rank int) []byte {
	s := strconv.Itoa(rank)
	if 4+len(s) > w.KeySize {
		panic("kv: KeySize too small for key space")
	}
	k := make([]byte, w.KeySize)
	n := copy(k, "key-")
	n += copy(k[n:], s)
	for i := n; i < w.KeySize; i++ {
		k[i] = 'x'
	}
	return k
}

// Next draws the next request.
func (w *Workload) Next() Request {
	rank := w.zipf.Draw()
	if w.rng.Float64() < w.GetFraction {
		return Request{Op: OpGet, Key: w.Key(rank)}
	}
	return Request{Op: OpSet, Key: w.Key(rank), Value: w.val}
}

// Preload fills the store with every key.
func (w *Workload) Preload(st *Store) {
	for i := 0; i < w.NumKeys; i++ {
		st.Set(w.Key(i), w.val)
	}
}
