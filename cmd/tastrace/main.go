// Command tastrace analyzes pcap captures produced by the trace package
// (or any classic little-endian Ethernet pcap of IPv4/TCP traffic):
// per-flow packet/byte counts, retransmissions, handshake/teardown
// events, ECN marking, and RTT samples from timestamp echoes. It is the
// debugging companion to the fabric's tap (Fabric.SetTap).
//
// With -flight it additionally loads a flight-recorder dump (the JSON
// served at /debug/flows or written by telemetry.Recorder.WriteJSON)
// and correlates each flow's traced segment events against the capture
// by sequence number, so a recorder timeline can be lined up with what
// actually crossed the wire.
//
//	tastrace capture.pcap
//	tastrace -flight flows.json capture.pcap
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/protocol"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// flowStats accumulates one direction of one connection.
type flowStats struct {
	key           protocol.FlowKey
	packets       uint64
	bytes         uint64
	retxPkts      uint64
	maxSeq        uint32
	seqInit       bool
	syn, fin, rst bool
	ceMarks       uint64
	eceAcks       uint64
	firstNs       int64
	lastNs        int64
	rttSumUs      uint64
	rttCnt        uint64
	tsEcho        map[uint32]int64 // TSVal -> send time (bounded)
	segTs         map[uint32]int64 // data seq -> first capture timestamp (bounded)
}

func main() {
	flight := flag.String("flight", "", "flight-recorder JSON dump to correlate against the capture")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tastrace [-flight flows.json] <capture.pcap>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tastrace: %s: not a readable pcap: %v\n", path, err)
		os.Exit(1)
	}

	flows := make(map[protocol.FlowKey]*flowStats)
	get := func(k protocol.FlowKey) *flowStats {
		s := flows[k]
		if s == nil {
			s = &flowStats{key: k, tsEcho: make(map[uint32]int64), segTs: make(map[uint32]int64)}
			flows[k] = s
		}
		return s
	}

	var total uint64
	var readErr error
	for {
		rec, err := r.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				readErr = err
			}
			break
		}
		total++
		p := rec.Packet
		// Direction key: sender's perspective.
		k := protocol.FlowKey{LocalIP: p.SrcIP, LocalPort: p.SrcPort, RemoteIP: p.DstIP, RemotePort: p.DstPort}
		s := get(k)
		s.packets++
		s.bytes += uint64(p.DataLen())
		if s.firstNs == 0 {
			s.firstNs = rec.TsNanos
		}
		s.lastNs = rec.TsNanos
		if p.Flags.Has(protocol.FlagSYN) {
			s.syn = true
		}
		if p.Flags.Has(protocol.FlagFIN) {
			s.fin = true
		}
		if p.Flags.Has(protocol.FlagRST) {
			s.rst = true
		}
		if p.ECN == protocol.ECNCE {
			s.ceMarks++
		}
		if p.Flags.Has(protocol.FlagECE) {
			s.eceAcks++
		}
		if n := p.DataLen(); n > 0 {
			if s.seqInit && tcp.SeqLT(p.Seq, s.maxSeq) {
				s.retxPkts++
			}
			if !s.seqInit || tcp.SeqGT(p.SeqEnd(), s.maxSeq) {
				s.maxSeq = p.SeqEnd()
				s.seqInit = true
			}
			if p.HasTS && len(s.tsEcho) < 1<<16 {
				s.tsEcho[p.TSVal] = rec.TsNanos
			}
			if _, seen := s.segTs[p.Seq]; !seen && len(s.segTs) < 1<<20 {
				s.segTs[p.Seq] = rec.TsNanos
			}
		}
		// RTT from the reverse direction's echo.
		if p.HasTS && p.TSEcr != 0 {
			rev := get(k.Reverse())
			if sent, ok := rev.tsEcho[p.TSEcr]; ok {
				if d := rec.TsNanos - sent; d >= 0 {
					rev.rttSumUs += uint64(d / 1000)
					rev.rttCnt++
				}
				delete(rev.tsEcho, p.TSEcr)
			}
		}
	}

	keys := make([]protocol.FlowKey, 0, len(flows))
	for k := range flows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return flows[keys[i]].bytes > flows[keys[j]].bytes })

	fmt.Printf("%d packets, %d flow directions\n\n", total, len(keys))
	fmt.Printf("%-44s %8s %10s %6s %5s %5s %7s %8s %s\n",
		"flow", "pkts", "bytes", "retx", "CE", "ECE", "rtt-us", "Mbps", "events")
	for _, k := range keys {
		s := flows[k]
		var rtt float64
		if s.rttCnt > 0 {
			rtt = float64(s.rttSumUs) / float64(s.rttCnt)
		}
		var mbps float64
		if d := s.lastNs - s.firstNs; d > 0 {
			mbps = float64(s.bytes) * 8 / (float64(d) / 1e9) / 1e6
		}
		ev := ""
		if s.syn {
			ev += "SYN "
		}
		if s.fin {
			ev += "FIN "
		}
		if s.rst {
			ev += "RST "
		}
		fmt.Printf("%-44s %8d %10d %6d %5d %5d %7.1f %8.2f %s\n",
			s.key.String(), s.packets, s.bytes, s.retxPkts, s.ceMarks, s.eceAcks, rtt, mbps, ev)
	}

	if *flight != "" {
		if err := correlate(*flight, flows); err != nil {
			fmt.Fprintf(os.Stderr, "tastrace: flight correlation: %v\n", err)
			os.Exit(1)
		}
	}

	// A short read mid-record means the capture was truncated (e.g. a
	// writer hit a full disk; see trace.Writer.Err). Everything up to
	// the damage was analyzed above — but say so and fail.
	if readErr != nil {
		fmt.Fprintf(os.Stderr, "tastrace: capture truncated after %d packets: %v\n", total, readErr)
		os.Exit(1)
	}
}

// correlate lines a flight-recorder dump up against the capture: every
// seg-tx/rexmit event should appear as a data packet in the flow's
// direction, every seg-rx as a data packet in the reverse direction,
// matched by raw sequence number.
func correlate(path string, flows map[protocol.FlowKey]*flowStats) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var dumps []telemetry.FlowDump
	if err := json.Unmarshal(data, &dumps); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	// The dump keys are local-perspective strings; index the capture's
	// directions the same way. Capture timestamps print relative to the
	// first packet (they are absolute wall-clock nanos on the wire).
	byKey := make(map[string]*flowStats, len(flows))
	var t0 int64
	for k, s := range flows {
		byKey[k.String()] = s
		if t0 == 0 || (s.firstNs > 0 && s.firstNs < t0) {
			t0 = s.firstNs
		}
	}

	fmt.Printf("\nflight-recorder correlation (%s):\n", path)
	for _, d := range dumps {
		fwd := byKey[d.Key]
		var rev *flowStats
		if fwd != nil {
			rev = byKey[fwd.key.Reverse().String()]
		}
		fmt.Printf("\nflow %s: %d events (%d overwritten)", d.Key, d.Total, d.Dropped)
		if fwd == nil {
			fmt.Printf(" — not in capture\n")
			continue
		}
		fmt.Println()
		var matched, missed int
		for _, ev := range d.Events {
			var dir *flowStats
			switch ev.Kind {
			case "seg-tx", "rexmit":
				dir = fwd
			case "seg-rx":
				dir = rev
			default:
				continue
			}
			mark := "not in capture"
			if dir != nil {
				if ts, ok := dir.segTs[ev.Seq]; ok {
					mark = fmt.Sprintf("pcap @%.3fms", float64(ts-t0)/1e6)
					matched++
				} else {
					missed++
				}
			} else {
				missed++
			}
			fmt.Printf("  %12.3fms  %-8s seq=%-10d bytes=%-6d %s\n",
				float64(ev.TS)/1e6, ev.Kind, ev.Seq, ev.Bytes, mark)
		}
		fmt.Printf("  %d/%d segment events matched in capture\n", matched, matched+missed)
	}
	return nil
}
