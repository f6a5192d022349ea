package netsim

import (
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Host is an endpoint: an IP/MAC identity, an uplink port toward the
// network, and a pluggable packet handler (the network stack under
// test).
type Host struct {
	IP      protocol.IPv4
	MAC     protocol.MAC
	Handler Deliverable
	uplink  *Port
	eng     *sim.Engine

	RxPackets uint64
	TxPackets uint64
}

// MACForIP derives a stable locally-administered MAC from an IP.
func MACForIP(ip protocol.IPv4) protocol.MAC { return protocol.MACForIPv4(ip) }

// NewHost creates a host; attach it with AttachUplink.
func NewHost(eng *sim.Engine, ip protocol.IPv4) *Host {
	return &Host{IP: ip, MAC: MACForIP(ip), eng: eng}
}

// AttachUplink wires the host's transmit side.
func (h *Host) AttachUplink(p *Port) { h.uplink = p }

// Deliver implements Deliverable: packets from the network are passed to
// the installed handler.
func (h *Host) Deliver(pkt *protocol.Packet) {
	h.RxPackets++
	if h.Handler != nil {
		h.Handler.Deliver(pkt)
	}
}

// Send stamps the packet with the host's source identity and transmits
// it. The destination MAC is derived from the destination IP (the slow
// path's ARP duty, resolved by construction here).
func (h *Host) Send(pkt *protocol.Packet) {
	pkt.SrcMAC = h.MAC
	if pkt.SrcIP == 0 {
		pkt.SrcIP = h.IP
	}
	if (pkt.DstMAC == protocol.MAC{}) {
		pkt.DstMAC = MACForIP(pkt.DstIP)
	}
	h.TxPackets++
	h.uplink.Send(pkt)
}

// Engine returns the simulation engine.
func (h *Host) Engine() *sim.Engine { return h.eng }
