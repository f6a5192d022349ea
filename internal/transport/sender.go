package transport

import (
	"repro/internal/congestion"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// SenderConfig configures one data-sending flow.
type SenderConfig struct {
	MSS  int    // segment payload size (default protocol.DefaultMSS)
	Size uint64 // bytes to send; 0 = unbounded (bulk flow)

	// Exactly one of Window or Rate must be set.
	Window congestion.WindowController // ack-clocked window sender
	Rate   congestion.RateController   // paced rate sender (TAS model)

	// ControlInterval is the slow-path control interval τ for rate
	// senders (default 100us). The rate controller runs once per τ, and
	// stall detection (the slow path's retransmission timeout, §3.2)
	// fires after stallIntervals τ without ack progress.
	ControlInterval sim.Time
	// AdaptiveInterval makes τ track 2x the measured RTT (the paper's
	// default: "every control interval (by default every 2 RTTs)"),
	// with ControlInterval as the floor. Keeps the control loop stable
	// when queueing inflates the RTT.
	AdaptiveInterval bool

	// GoBackN makes fast retransmit resend everything from the
	// cumulative ack instead of just the first missing segment. Rate
	// senders always go back N (the TAS fast path "resets the sender
	// state as if those segments had not been sent").
	GoBackN bool

	// MaxInflight caps unacknowledged bytes (stands in for the
	// negotiated receive window; default 1 MiB).
	MaxInflight uint32

	// MinRTO clamps the retransmission timeout (default 1ms).
	MinRTO sim.Time
	// MaxRTO clamps it from above and serves as the pre-first-sample
	// initial RTO (default 1s, TCP's conventional initial value).
	MaxRTO sim.Time

	// OnComplete fires when the last byte is acknowledged (sized flows).
	OnComplete func(fct sim.Time)
}

// stallIntervals control intervals without ack progress make a rate
// sender's retransmission timeout, as in the live slow path.
const stallIntervals = 2

func (c *SenderConfig) fill() {
	if c.MSS <= 0 {
		c.MSS = protocol.DefaultMSS
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 1 << 20
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = 100 * sim.Microsecond
	}
	if c.MinRTO <= 0 {
		c.MinRTO = sim.Millisecond
	}
}

// SenderStats reports what a sender did.
type SenderStats struct {
	SentBytes     uint64 // payload bytes transmitted, including retransmissions
	RetxBytes     uint64 // of those, retransmitted
	AckedBytes    uint64 // cumulative bytes acknowledged
	Frexmits      uint64 // fast-retransmit events
	Timeouts      uint64 // retransmission timeouts
	EcnAckedBytes uint64 // acked bytes whose acks carried ECE
}

// Sender transmits a byte stream over the simulated network.
type Sender struct {
	ep  *Endpoint
	eng *sim.Engine
	key protocol.FlowKey
	cfg SenderConfig

	started   bool
	startTime sim.Time
	finished  bool

	nextSend      uint32 // next sequence to transmit
	sentHigh      uint32 // highest sequence transmitted + 1
	cumAck        uint32 // highest cumulative ack received
	dupAcks       int
	inRecov       bool
	everRecovered bool
	recover       uint32

	rtt        *tcp.RTTEstimator
	rtoTimer   *sim.Timer
	rtoBackoff int

	// Rate-sender pacing state: the last transmission time and the wire
	// bits it "owes"; the next send is eligible once the owed bits have
	// drained at the *current* rate, so rate increases immediately pull
	// the next transmission earlier.
	lastTxTime   sim.Time
	owedBits     float64
	paceTimer    *sim.Timer
	ctrlTimer    *sim.Timer
	lastTick     sim.Time
	stallAck     uint32
	stallCount   int
	stallBackoff int

	// Interval counters for congestion feedback.
	ivAcked, ivEcn, ivSent uint64
	ivFrexmits, ivTimeouts uint32
	// txRateEwma smooths the measured send rate across control
	// intervals: with small τ only a handful of packets fit in one
	// interval, and the controller's 1.2x send-rate cap must not clamp
	// against that quantization noise.
	txRateEwma  float64
	txRateValid bool

	stats SenderStats
}

// NewSender registers a sender for the flow on ep (local side of key is
// ep's host). Call Start to begin transmission.
func NewSender(ep *Endpoint, key protocol.FlowKey, cfg SenderConfig) *Sender {
	cfg.fill()
	if (cfg.Window == nil) == (cfg.Rate == nil) {
		panic("transport: exactly one of Window or Rate must be set")
	}
	s := &Sender{ep: ep, eng: ep.eng, key: key, cfg: cfg, rtt: tcp.NewRTTEstimator()}
	s.rtt.MinRTO = int64(cfg.MinRTO)
	if cfg.MaxRTO > 0 {
		s.rtt.MaxRTO = int64(cfg.MaxRTO)
	}
	ep.register(key, s)
	return s
}

// Stats returns a snapshot of the sender counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Finished reports whether a sized flow has been fully acknowledged.
func (s *Sender) Finished() bool { return s.finished }

// AckedBytes returns the cumulative acknowledged byte count.
func (s *Sender) AckedBytes() uint64 { return s.stats.AckedBytes }

// Start begins transmission at the current simulated time.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.startTime = s.eng.Now()
	s.lastTxTime = s.eng.Now()
	if s.cfg.Rate != nil {
		if s.cfg.AdaptiveInterval {
			var tick func()
			tick = func() {
				s.controlTick()
				if s.finished {
					return
				}
				next := s.cfg.ControlInterval
				if rtt := sim.Time(2 * s.rtt.SRTT()); rtt > next {
					next = rtt
				}
				s.ctrlTimer = s.eng.After(next, tick)
			}
			s.ctrlTimer = s.eng.After(s.cfg.ControlInterval, tick)
		} else {
			s.ctrlTimer = s.eng.Every(s.cfg.ControlInterval, s.controlTick)
		}
		s.schedulePacedSend()
	} else {
		s.trySendWindow()
	}
}

// remaining returns how many bytes past nextSend are still unsent (for
// unbounded flows, always plenty).
func (s *Sender) remaining() uint64 {
	if s.cfg.Size == 0 {
		return 1 << 62
	}
	sentNew := s.stats.AckedBytes + uint64(uint32(tcp.SeqDiff(s.nextSend, s.cumAck)))
	if sentNew >= s.cfg.Size {
		return 0
	}
	return s.cfg.Size - sentNew
}

func (s *Sender) inflight() uint32 {
	// Measured from nextSend, not sentHigh: after a go-back-N rewind the
	// rewound segments count as "not sent" (the paper's fast path resets
	// the sender state exactly this way), which is what lets the window
	// admit the retransmissions.
	return uint32(tcp.SeqDiff(s.nextSend, s.cumAck))
}

// sendSegment transmits one segment at nextSend.
func (s *Sender) sendSegment(n int) {
	retx := tcp.SeqLT(s.nextSend, s.sentHigh)
	pkt := &protocol.Packet{
		SrcIP: s.key.LocalIP, DstIP: s.key.RemoteIP,
		SrcPort: s.key.LocalPort, DstPort: s.key.RemotePort,
		Flags: protocol.FlagACK, Seq: s.nextSend,
		PayloadLen: n,
		ECN:        protocol.ECNECT0,
		HasTS:      true,
		TSVal:      uint32(s.eng.Now() / 1000),
	}
	s.nextSend += uint32(n)
	if tcp.SeqGT(s.nextSend, s.sentHigh) {
		s.sentHigh = s.nextSend
	}
	s.stats.SentBytes += uint64(n)
	s.ivSent += uint64(n)
	if retx {
		s.stats.RetxBytes += uint64(n)
	}
	s.ep.send(pkt)
	s.armRTO()
}

// segLen returns the next segment length (<= MSS, <= remaining).
func (s *Sender) segLen() int {
	rem := s.remaining()
	if rem == 0 {
		return 0
	}
	if rem < uint64(s.cfg.MSS) {
		return int(rem)
	}
	return s.cfg.MSS
}

// --- Window (ack-clocked) path -------------------------------------------

func (s *Sender) trySendWindow() {
	if s.finished {
		return
	}
	for {
		n := s.segLen()
		if n == 0 {
			return
		}
		cwnd := uint32(s.cfg.Window.Window())
		if cwnd > s.cfg.MaxInflight {
			cwnd = s.cfg.MaxInflight
		}
		if s.inflight()+uint32(n) > cwnd {
			return
		}
		s.sendSegment(n)
	}
}

// --- Rate (paced) path ----------------------------------------------------

// eligibleAt returns when the next paced transmission may go out, given
// the current rate: the owed bits of the previous transmission must have
// drained.
func (s *Sender) eligibleAt() sim.Time {
	rate := s.cfg.Rate.Rate() * 8 // bits/s
	if rate <= 0 {
		rate = 1
	}
	drain := sim.Time(s.owedBits / rate * 1e9)
	at := s.lastTxTime + drain
	if now := s.eng.Now(); at < now {
		at = now
	}
	return at
}

func (s *Sender) schedulePacedSend() {
	if s.finished {
		return
	}
	at := s.eligibleAt()
	if s.paceTimer != nil {
		s.paceTimer.Stop()
	}
	s.paceTimer = s.eng.At(at, s.pacedSend)
}

func (s *Sender) pacedSend() {
	if s.finished {
		return
	}
	if at := s.eligibleAt(); at > s.eng.Now() {
		s.schedulePacedSend() // rate dropped since scheduling
		return
	}
	n := s.segLen()
	if n == 0 {
		return // nothing to send; ack arrival or control tick re-arms
	}
	if s.inflight()+uint32(n) > s.cfg.MaxInflight {
		return // window-limited; ack arrival re-arms
	}
	s.sendSegment(n)
	s.lastTxTime = s.eng.Now()
	s.owedBits = float64((n + protocol.EthHeaderLen + protocol.IPv4HeaderLen + protocol.TCPHeaderLen + protocol.TSOptLen) * 8)
	s.schedulePacedSend()
}

// controlTick is the slow path's per-flow control loop: gather feedback,
// run the congestion policy, detect stalls.
func (s *Sender) controlTick() {
	if s.finished {
		return
	}
	elapsed := s.eng.Now() - s.lastTick
	s.lastTick = s.eng.Now()
	if elapsed <= 0 {
		elapsed = s.cfg.ControlInterval
	}
	inst := float64(s.ivSent) / (float64(elapsed) / 1e9)
	if !s.txRateValid {
		s.txRateEwma = inst
		s.txRateValid = true
	} else {
		s.txRateEwma = 0.7*s.txRateEwma + 0.3*inst
	}
	fb := congestion.Feedback{
		AckedBytes: s.ivAcked,
		EcnBytes:   s.ivEcn,
		Frexmits:   s.ivFrexmits,
		Timeouts:   s.ivTimeouts,
		RTT:        s.rtt.SRTT(),
		TxRate:     s.txRateEwma,
	}
	s.ivAcked, s.ivEcn, s.ivSent, s.ivFrexmits, s.ivTimeouts = 0, 0, 0, 0, 0
	s.cfg.Rate.Update(fb)

	// Stall detection: unacknowledged data with no cumulative-ack
	// progress for stallIntervals control intervals triggers a
	// retransmission restart (§3.2, Retransmission timeouts). Guard with
	// the RTT estimate so that control intervals much shorter than the
	// RTT do not declare spurious timeouts.
	if s.inflight() > 0 && s.cumAck == s.stallAck {
		s.stallCount++
		minWait := sim.Time(stallIntervals) * s.cfg.ControlInterval
		if srtt := sim.Time(3 * s.rtt.SRTT()); srtt > minWait {
			minWait = srtt
		}
		if minWait < s.cfg.MinRTO {
			minWait = s.cfg.MinRTO
		}
		// Exponential backoff on consecutive stall timeouts, so a flow
		// at the rate floor is not re-collapsed every interval while its
		// retransmission is still draining.
		minWait <<= uint(s.stallBackoff)
		if s.stallCount >= stallIntervals &&
			sim.Time(s.stallCount)*s.cfg.ControlInterval >= minWait {
			s.stallCount = 0
			if s.stallBackoff < 10 {
				s.stallBackoff++
			}
			s.timeoutRetransmit()
		}
	} else {
		s.stallCount = 0
		s.stallBackoff = 0
		s.stallAck = s.cumAck
	}
	s.schedulePacedSend()
}

// --- Loss handling ---------------------------------------------------------

func (s *Sender) armRTO() {
	if s.cfg.Rate != nil {
		return // rate senders use slow-path stall detection instead
	}
	if s.rtoTimer != nil {
		s.rtoTimer.Stop()
	}
	rto := sim.Time(s.rtt.RTO()) << uint(s.rtoBackoff)
	if rto > 4*sim.Second {
		rto = 4 * sim.Second
	}
	s.rtoTimer = s.eng.After(rto, s.onRTO)
}

func (s *Sender) onRTO() {
	if s.finished || s.inflight() == 0 {
		return
	}
	s.rtoBackoff++
	s.timeoutRetransmit()
}

func (s *Sender) timeoutRetransmit() {
	s.stats.Timeouts++
	s.ivTimeouts++
	s.dupAcks = 0
	s.inRecov = false
	s.nextSend = s.cumAck // go back N
	if s.cfg.Window != nil {
		s.cfg.Window.OnRetransmitTimeout()
		s.trySendWindow()
	} else {
		s.schedulePacedSend()
	}
}

func (s *Sender) fastRetransmit() {
	s.stats.Frexmits++
	s.ivFrexmits++
	s.inRecov = true
	s.everRecovered = true
	s.recover = s.sentHigh
	if s.cfg.GoBackN || s.cfg.Rate != nil {
		// Reset as if those segments had not been sent.
		s.nextSend = s.cumAck
	} else {
		// Retransmit just the first missing segment.
		saved := s.nextSend
		s.nextSend = s.cumAck
		n := s.segLen()
		if n > 0 {
			s.sendSegment(n)
		}
		if tcp.SeqGT(saved, s.nextSend) {
			s.nextSend = saved
		}
	}
}

// --- Ack processing ---------------------------------------------------------

func (s *Sender) onPacket(pkt *protocol.Packet) {
	if pkt.DataLen() > 0 || !pkt.Flags.Has(protocol.FlagACK) || s.finished {
		return
	}
	if pkt.HasTS && pkt.TSEcr != 0 {
		s.rtt.Sample(int64(s.eng.Now()) - int64(pkt.TSEcr)*1000)
	}
	ece := pkt.Flags.Has(protocol.FlagECE)

	switch {
	case tcp.SeqGT(pkt.Ack, s.cumAck):
		acked := uint32(tcp.SeqDiff(pkt.Ack, s.cumAck))
		s.cumAck = pkt.Ack
		if tcp.SeqGT(s.cumAck, s.nextSend) {
			// The receiver has everything up to cumAck (it buffered data
			// we were about to resend): skip ahead.
			s.nextSend = s.cumAck
		}
		s.stats.AckedBytes += uint64(acked)
		s.ivAcked += uint64(acked)
		if ece {
			s.stats.EcnAckedBytes += uint64(acked)
			s.ivEcn += uint64(acked)
		}
		s.dupAcks = 0
		s.rtoBackoff = 0
		if s.cfg.Window != nil {
			s.cfg.Window.OnAck(int(acked), ece)
		}
		if s.inRecov {
			if tcp.SeqGEQ(s.cumAck, s.recover) {
				s.inRecov = false
			} else if !s.cfg.GoBackN && s.cfg.Rate == nil {
				// NewReno partial ack: retransmit the next missing segment.
				saved := s.nextSend
				s.nextSend = s.cumAck
				if n := s.segLen(); n > 0 {
					s.sendSegment(n)
				}
				if tcp.SeqGT(saved, s.nextSend) {
					s.nextSend = saved
				}
			}
		}
		if s.cfg.Size > 0 && s.stats.AckedBytes >= s.cfg.Size {
			s.complete()
			return
		}
		if s.inflight() == 0 {
			if s.rtoTimer != nil {
				s.rtoTimer.Stop()
			}
		} else {
			s.armRTO()
		}
	case pkt.Ack == s.cumAck && s.inflight() > 0:
		s.dupAcks++
		triggered := false
		if s.cfg.Window != nil {
			triggered = s.cfg.Window.OnDupAck()
		} else {
			triggered = s.dupAcks == 3
		}
		// RFC 6582 guard: after a recovery, stale duplicates of our own
		// retransmission burst still carry ack == recovery point; do not
		// let them trigger a new (spurious) recovery until the
		// cumulative ack has moved past the previous recovery's high
		// water mark.
		if triggered && !s.inRecov && (!s.everRecovered || tcp.SeqGT(s.cumAck, s.recover)) {
			s.fastRetransmit()
		}
	}

	if s.cfg.Window != nil {
		s.trySendWindow()
	} else {
		s.schedulePacedSend()
	}
}

func (s *Sender) complete() {
	s.finished = true
	if s.rtoTimer != nil {
		s.rtoTimer.Stop()
	}
	if s.ctrlTimer != nil {
		s.ctrlTimer.Stop()
	}
	if s.cfg.OnComplete != nil {
		s.cfg.OnComplete(s.eng.Now() - s.startTime)
	}
}
