//go:build race

package protocol

// Under the race detector packet ownership is a checked invariant: a
// released packet is marked and its slab poisoned, so a second Release
// or a stage that still reads the packet fails loudly instead of
// corrupting whoever drew the packet next.

// OwnershipChecked reports whether this build checks packet ownership.
const OwnershipChecked = true

func (p *Packet) markReleased() {
	if p.owner == ownerReleased {
		panic("protocol: packet released twice")
	}
	p.owner = ownerReleased
	slab := p.slab[:cap(p.slab)]
	for i := range slab {
		slab[i] = 0xDE
	}
}

// AssertLive panics if the packet has been released.
func (p *Packet) AssertLive() {
	if p.owner == ownerReleased {
		panic("protocol: use of a released packet")
	}
}
