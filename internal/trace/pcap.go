// Package trace captures packets crossing the simulated network or the
// live fabric into standard pcap files (readable by tcpdump/Wireshark),
// plus an in-memory recorder for assertions in tests. Wire bytes come
// from protocol.Marshal, so captures show real Ethernet/IPv4/TCP frames
// with valid checksums.
package trace

import (
	"encoding/binary"
	"io"
	"sync"

	"repro/internal/protocol"
)

// pcap global header constants (classic little-endian pcap, LINKTYPE_ETHERNET).
const (
	pcapMagic   = 0xa1b2c3d4
	pcapVMajor  = 2
	pcapVMinor  = 4
	pcapSnapLen = 65535
	pcapEthLink = 1
)

// Writer streams packets into a pcap file.
type Writer struct {
	mu     sync.Mutex
	w      io.Writer
	n      uint64
	err    error
	closed bool
}

// NewWriter writes the pcap global header and returns the writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], pcapMagic)
	le.PutUint16(hdr[4:], pcapVMajor)
	le.PutUint16(hdr[6:], pcapVMinor)
	// thiszone, sigfigs = 0
	le.PutUint32(hdr[16:], pcapSnapLen)
	le.PutUint32(hdr[20:], pcapEthLink)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w}, nil
}

// WritePacket records one packet at the given timestamp (nanoseconds).
func (p *Writer) WritePacket(tsNanos int64, pkt *protocol.Packet) error {
	frame := protocol.Marshal(pkt)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil || p.closed {
		return p.err
	}
	var rec [16]byte
	le := binary.LittleEndian
	le.PutUint32(rec[0:], uint32(tsNanos/1e9))
	le.PutUint32(rec[4:], uint32(tsNanos%1e9/1000)) // microseconds
	le.PutUint32(rec[8:], uint32(len(frame)))
	le.PutUint32(rec[12:], uint32(len(frame)))
	if err := p.writeFull(rec[:]); err != nil {
		return err
	}
	if err := p.writeFull(frame); err != nil {
		return err
	}
	p.n++
	return nil
}

// writeFull writes b entirely or latches the failure, converting a
// short write (n < len(b) with a nil error, which would silently
// truncate the capture mid-record) into io.ErrShortWrite. Caller holds
// p.mu.
func (p *Writer) writeFull(b []byte) error {
	n, err := p.w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		p.err = err
	}
	return err
}

// Close ends the capture: a later WritePacket writes nothing, so a tap
// that races its own removal cannot touch the underlying writer once
// Close has returned. It returns the first error the writer encountered
// (nil if none); taps such as Fabric.CaptureTo ignore WritePacket's
// per-call return, and Close surfaces a latched failure — a capture
// that stopped mid-stream.
func (p *Writer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	return p.err
}

// Count returns the number of packets written.
func (p *Writer) Count() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Record is one captured packet.
type Record struct {
	TsNanos int64
	Packet  *protocol.Packet
}

// Reader parses a pcap stream written by Writer (or any classic
// little-endian Ethernet pcap containing IPv4/TCP frames).
type Reader struct {
	r io.Reader
}

// NewReader validates the global header.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pcapMagic {
		return nil, io.ErrUnexpectedEOF
	}
	return &Reader{r: r}, nil
}

// Next returns the next packet, or io.EOF.
func (r *Reader) Next() (Record, error) {
	var rec [16]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return Record{}, err
	}
	le := binary.LittleEndian
	ts := int64(le.Uint32(rec[0:]))*1e9 + int64(le.Uint32(rec[4:]))*1000
	n := le.Uint32(rec[8:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return Record{}, err
	}
	pkt, err := protocol.Parse(buf)
	if err != nil {
		return Record{}, err
	}
	return Record{TsNanos: ts, Packet: pkt}, nil
}

// Recorder collects packets in memory for test assertions; it doubles as
// a tap function compatible with fabric and netsim hooks.
type Recorder struct {
	mu   sync.Mutex
	recs []Record
}

// Tap records one packet (safe for concurrent use).
func (c *Recorder) Tap(tsNanos int64, pkt *protocol.Packet) {
	c.mu.Lock()
	c.recs = append(c.recs, Record{TsNanos: tsNanos, Packet: pkt.Clone()})
	c.mu.Unlock()
}

// Records returns a snapshot of the captured packets.
func (c *Recorder) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Record(nil), c.recs...)
}

// Count returns how many packets were captured.
func (c *Recorder) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}
