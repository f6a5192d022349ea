//go:build !race

package protocol

// OwnershipChecked reports whether this build checks packet ownership.
const OwnershipChecked = false

func (p *Packet) markReleased() {}

// AssertLive panics if the packet has been released (race builds only).
func (p *Packet) AssertLive() {}
