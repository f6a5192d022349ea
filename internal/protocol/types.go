// Package protocol implements the wire protocols TAS speaks: Ethernet II,
// IPv4 (with ECN), and TCP with the options the fast path uses (MSS and
// timestamps). Packets have two representations: the parsed Packet struct
// used throughout the simulator and fast path, and the byte encoding used
// by the live engine and by interoperability tests. Marshal and Parse
// convert between them and are exact inverses for well-formed packets.
package protocol

import (
	"errors"
	"fmt"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the MAC in the canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4 is an IPv4 address in host representation.
type IPv4 uint32

// MakeIPv4 builds an address from its four octets.
func MakeIPv4(a, b, c, d byte) IPv4 {
	return IPv4(a)<<24 | IPv4(b)<<16 | IPv4(c)<<8 | IPv4(d)
}

// String formats the address in dotted-quad form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// TCPFlags is the TCP flag byte plus NS (we only use the low 8 bits).
type TCPFlags uint8

// TCP header flags.
const (
	FlagFIN TCPFlags = 1 << 0
	FlagSYN TCPFlags = 1 << 1
	FlagRST TCPFlags = 1 << 2
	FlagPSH TCPFlags = 1 << 3
	FlagACK TCPFlags = 1 << 4
	FlagURG TCPFlags = 1 << 5
	FlagECE TCPFlags = 1 << 6 // ECN echo
	FlagCWR TCPFlags = 1 << 7 // congestion window reduced
)

// Has reports whether all flags in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String lists the set flags, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"},
		{FlagACK, "ACK"}, {FlagURG, "URG"}, {FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	s := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// ECN is the IP-header ECN codepoint.
type ECN uint8

// IP ECN codepoints.
const (
	ECNECT1 ECN = 1 // ECN-capable transport (1); 0 is not ECN-capable
	ECNECT0 ECN = 2 // ECN-capable transport (0)
	ECNCE   ECN = 3 // congestion experienced
)

// Protocol numbers and sizes.
const (
	EtherTypeIPv4 = 0x0800
	IPProtoTCP    = 6

	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	TCPHeaderLen  = 20 // without options

	// TSOptLen is the length of the timestamp option including the two
	// leading NOPs used for alignment (NOP NOP kind len val ecr).
	TSOptLen = 12
	// MSSOptLen is the length of the MSS option.
	MSSOptLen = 4

	// DefaultMSS is the payload MSS for a standard 1500-byte MTU with
	// timestamps: 1500 - 20 (IP) - 20 (TCP) - 12 (TS option).
	DefaultMSS = 1448
)

// Errors returned by Parse.
var (
	ErrTruncated   = errors.New("protocol: truncated packet")
	ErrNotIPv4     = errors.New("protocol: not an IPv4 packet")
	ErrNotTCP      = errors.New("protocol: not a TCP segment")
	ErrBadChecksum = errors.New("protocol: bad checksum")
	ErrBadHeader   = errors.New("protocol: malformed header")
	ErrFragment    = errors.New("protocol: fragmented packet")
)
