package protocol

import "sync"

// The packet pool. The live fast path builds every segment and ACK in a
// packet drawn from here, and a packet moves between stages by
// ownership hand-off, never by copy: NewPacket's caller owns it until
// it passes it on (NIC.Output, the fabric, Engine.Input), and the last
// owner — the fast-path core that has consumed it — calls Release. An
// owner that drops a packet instead (a fabric loss, a full ring, a NIC
// that delivers nowhere) just leaves it to the garbage collector.
//
// Packets the pool did not hand out (literals, clones) carry no owner
// mark, so Release ignores them: a test or probe may share one payload
// slice across many literal packets, or send one packet pointer a
// million times, and nothing of theirs is ever recycled.

// Owner marks.
const (
	ownerNone     uint8 = iota // a literal or a clone: not the pool's
	ownerPool                  // handed out by NewPacket, not yet released
	ownerReleased              // race builds only: back in the pool
)

var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket returns a zeroed packet from the pool. The caller owns it.
func NewPacket() *Packet {
	p := packetPool.Get().(*Packet)
	*p = Packet{slab: p.slab, owner: ownerPool}
	return p
}

// AllocPayload sets Payload to n bytes of the packet's own slab and
// returns it for the caller to fill. The slab is MSS-sized, allocated
// the first time a packet carries data (a pool miss that only ever
// becomes an ACK costs no slab) and kept across trips through the pool.
func (p *Packet) AllocPayload(n int) []byte {
	if n > cap(p.slab) {
		p.slab = make([]byte, max(n, DefaultMSS))
	}
	p.Payload = p.slab[:n]
	return p.Payload
}

// Release returns a packet to the pool. Only the packet's current
// owner may call it, once, and must not touch the packet or its payload
// afterwards (race builds check all three). A no-op on a packet the
// pool did not hand out.
func (p *Packet) Release() {
	if p.owner == ownerNone {
		return
	}
	p.markReleased()
	packetPool.Put(p)
}
