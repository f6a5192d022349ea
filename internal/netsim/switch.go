package netsim

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/sim"
)

// Switch is an output-queued switch: a route function selects the egress
// port for each packet, and each egress port is an independent Port with
// its own queue, rate, and ECN threshold. Switching latency itself is
// folded into link propagation delay (store-and-forward serialization is
// modeled by the ports).
type Switch struct {
	Name  string
	eng   *sim.Engine
	ports []*Port
	route func(pkt *protocol.Packet) int
}

// NewSwitch returns a switch with no ports; add them with AddPort and
// install routing with SetRoute.
func NewSwitch(eng *sim.Engine, name string) *Switch {
	return &Switch{Name: name, eng: eng}
}

// AddPort appends an egress port toward peer and returns its index.
func (s *Switch) AddPort(cfg PortConfig, peer Deliverable) int {
	s.ports = append(s.ports, NewPort(s.eng, cfg, peer))
	return len(s.ports) - 1
}

// Port returns the egress port at index i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// SetRoute installs the route function mapping packets to egress port
// indexes. Returning a negative index drops the packet.
func (s *Switch) SetRoute(fn func(pkt *protocol.Packet) int) { s.route = fn }

// Deliver implements Deliverable.
func (s *Switch) Deliver(pkt *protocol.Packet) {
	i := s.route(pkt)
	if i < 0 || i >= len(s.ports) {
		return // no route: drop
	}
	s.ports[i].Send(pkt)
}

// String identifies the switch.
func (s *Switch) String() string { return fmt.Sprintf("switch(%s,%d ports)", s.Name, len(s.ports)) }
