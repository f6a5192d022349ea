package protocol

import "fmt"

// Packet is the parsed representation of an Ethernet/IPv4/TCP frame. It is
// the unit of exchange inside the network simulator and the argument to
// the fast-path processing functions. For large-scale simulations the
// payload may be elided: set PayloadLen and leave Payload nil; the two
// are kept consistent by DataLen.
type Packet struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IPv4
	SrcPort, DstPort uint16

	Seq, Ack uint32
	Flags    TCPFlags
	Window   uint16

	// TCP timestamp option (present when HasTS).
	HasTS        bool
	TSVal, TSEcr uint32

	// MSS option (SYN segments only; 0 = absent).
	MSSOpt uint16

	// ECN is the IP-header codepoint. Switch queues set ECNCE above
	// their marking threshold when the packet is ECN-capable.
	ECN ECN

	// Payload carries real bytes (live mode, loopback tests). When nil,
	// PayloadLen gives the simulated payload size.
	Payload    []byte
	PayloadLen int

	// slab and owner belong to the packet pool (pool.go): the payload
	// backing a pooled packet carries with it, and who may recycle it.
	slab  []byte
	owner uint8
}

// DataLen returns the TCP payload length in bytes.
func (p *Packet) DataLen() int {
	if p.Payload != nil {
		return len(p.Payload)
	}
	return p.PayloadLen
}

// tcpHeaderLen returns the TCP header length including options.
func (p *Packet) tcpHeaderLen() int {
	n := TCPHeaderLen
	if p.MSSOpt != 0 {
		n += MSSOptLen
	}
	if p.HasTS {
		n += TSOptLen
	}
	return n
}

// WireLen returns the total frame length on the wire (Ethernet header
// through payload; excludes FCS/preamble).
func (p *Packet) WireLen() int {
	return EthHeaderLen + IPv4HeaderLen + p.tcpHeaderLen() + p.DataLen()
}

// SeqEnd returns the sequence number just past this segment's data,
// counting SYN and FIN as one unit of sequence space each.
func (p *Packet) SeqEnd() uint32 {
	e := p.Seq + uint32(p.DataLen())
	if p.Flags.Has(FlagSYN) {
		e++
	}
	if p.Flags.Has(FlagFIN) {
		e++
	}
	return e
}

// FlowKey identifies a connection from the receiver's point of view:
// (local IP, local port, remote IP, remote port).
type FlowKey struct {
	LocalIP    IPv4
	LocalPort  uint16
	RemoteIP   IPv4
	RemotePort uint16
}

// Reverse returns the key of the same connection from the peer's side.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{LocalIP: k.RemoteIP, LocalPort: k.RemotePort, RemoteIP: k.LocalIP, RemotePort: k.LocalPort}
}

// String formats the key as local->remote.
func (k FlowKey) String() string {
	return fmt.Sprintf("%v:%d->%v:%d", k.LocalIP, k.LocalPort, k.RemoteIP, k.RemotePort)
}

// RxKey returns the FlowKey for an incoming packet (p's destination is
// local).
func (p *Packet) RxKey() FlowKey {
	return FlowKey{LocalIP: p.DstIP, LocalPort: p.DstPort, RemoteIP: p.SrcIP, RemotePort: p.SrcPort}
}

// Clone returns a deep copy of the packet (payload included). The copy
// is never the pool's: whoever keeps a clone keeps it for good.
func (p *Packet) Clone() *Packet {
	q := *p
	q.slab, q.owner = nil, ownerNone
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// String renders a compact human-readable summary.
func (p *Packet) String() string {
	return fmt.Sprintf("%v:%d>%v:%d %v seq=%d ack=%d win=%d len=%d",
		p.SrcIP, p.SrcPort, p.DstIP, p.DstPort, p.Flags, p.Seq, p.Ack, p.Window, p.DataLen())
}

// MACForIPv4 derives a stable locally-administered MAC address from an
// IPv4 address — the address scheme used throughout the simulated and
// live fabrics (the slow path's ARP table is this function).
func MACForIPv4(ip IPv4) MAC {
	return MAC{0x02, 0, byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}

// FlowHash is the hash used for receive-side scaling (RSS). It is a
// symmetric-enough 4-tuple hash (FNV-1a over the canonicalized tuple) so
// that both directions of a connection map to the same fast-path core,
// mirroring the symmetric Toeplitz configuration the paper relies on.
func FlowHash(a IPv4, ap uint16, b IPv4, bp uint16) uint32 {
	// Canonicalize so hash(src,dst) == hash(dst,src).
	if a > b || (a == b && ap > bp) {
		a, b = b, a
		ap, bp = bp, ap
	}
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint32(a))
	mix(uint32(b))
	mix(uint32(ap)<<16 | uint32(bp))
	return h
}

// Hash returns the RSS hash of the packet's 4-tuple.
func (p *Packet) Hash() uint32 {
	return FlowHash(p.SrcIP, p.SrcPort, p.DstIP, p.DstPort)
}
