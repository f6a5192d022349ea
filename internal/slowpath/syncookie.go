package slowpath

import (
	"time"

	"repro/internal/config"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// SYN-cookie wiring. The cookie jar itself (keyed MAC, epoch rotation,
// MSS-class encoding) lives in internal/tcp and is owned by the engine,
// so its key schedule survives a slow-path crash and warm restart: a
// handshake that straddles the restart still validates. This file is
// the policy layer — when a listener switches to stateless handshakes,
// and how a completing ACK is turned back into connection state.

// cookiesEngaged decides, for one inbound SYN, whether the listener
// answers statelessly. It also advances the listener's SYN-rate window,
// so it must be called exactly once per SYN, under the handshake table lock.
//
// Auto mode engages on either pressure signal: half-open occupancy at
// half the backlog (the flood is winning the table) or SYN arrival rate
// above SynRateThreshold (the flood is coming, regardless of how fast
// entries are reaped). The verdict is sticky for a second so a
// sawtoothing attack doesn't flap the listener between modes.
func (s *Slowpath) cookiesEngaged(l *listener, now int64) bool {
	switch s.cfg.SynCookies {
	case config.SynCookiesAlways:
		return true
	case config.SynCookiesOff:
		return false
	}
	if now-l.synWinStart >= int64(time.Second) {
		l.synWinStart = now
		l.synInWin = 0
	}
	l.synInWin++
	// Rung 1 of the degradation ladder: global resource pressure forces
	// every listener stateless regardless of its local signals — a
	// cookie handshake costs no half-open slot. Setting cookieUntil also
	// keeps cookiesActive accepting the completing ACKs.
	if g := s.cfg.Gov; g != nil && g.Level() >= resource.LevelCookies {
		g.NoteShed(resource.LevelCookies)
		l.cookieUntil = now + int64(time.Second)
		return true
	}
	if l.halfCount >= (l.Backlog+1)/2 ||
		(s.cfg.SynRateThreshold > 0 && l.synInWin > s.cfg.SynRateThreshold) {
		l.cookieUntil = now + int64(time.Second)
	}
	return now < l.cookieUntil
}

// cookiesActive reports whether a completing ACK on this listener
// should be tried against the cookie jar. Unlike cookiesEngaged it does
// not advance the rate window — ACKs are not SYNs — but it must accept
// for the whole sticky window plus the handshake's own round trip, so
// the tail of ACKs from cookies issued just before pressure subsided
// still validates. Caller holds the handshake table lock.
func (s *Slowpath) cookiesActive(l *listener, now int64) bool {
	switch s.cfg.SynCookies {
	case config.SynCookiesAlways:
		return true
	case config.SynCookiesOff:
		return false
	}
	return l.cookieUntil != 0 && now < l.cookieUntil+int64(2*time.Second)
}

// sendCookieSynAck answers a SYN statelessly: the ISN is a keyed MAC
// over the 4-tuple and the peer's ISS, with the peer's MSS class folded
// into the low bits, so the completing ACK alone reconstructs the
// connection.
func (s *Slowpath) sendCookieSynAck(key protocol.FlowKey, pkt *protocol.Packet) {
	mss := pkt.MSSOpt
	if mss == 0 {
		mss = uint16(protocol.DefaultMSS)
	}
	cookie := s.eng.Cookies.Issue(
		uint32(key.LocalIP), key.LocalPort,
		uint32(key.RemoteIP), key.RemotePort,
		pkt.Seq, mss,
	)
	s.ctr.SynCookiesSent.Add(1)
	s.sendCtl(key, protocol.FlagSYN|protocol.FlagACK, cookie, pkt.Seq+1, true)
	s.record(key, telemetry.FESynCookieTx, cookie, pkt.Seq+1, 0)
}

// cookieHalf validates a candidate cookie ACK and, on success, returns
// a synthesized half-open entry equivalent to the one a stateful
// handshake would have stored: iss is the cookie itself, peerISS is
// recovered from the ACK's sequence, and mss is the class the cookie
// encoded (capping segmentation on the installed flow). Caller holds
// the handshake table lock.
func (s *Slowpath) cookieHalf(key protocol.FlowKey, pkt *protocol.Packet, l *listener) (*halfOpen, bool) {
	peerISS := pkt.Seq - 1
	cookie := pkt.Ack - 1
	mss, ok := s.eng.Cookies.Validate(
		uint32(key.LocalIP), key.LocalPort,
		uint32(key.RemoteIP), key.RemotePort,
		peerISS, cookie,
	)
	if !ok {
		return nil, false
	}
	return &halfOpen{
		key: key, iss: cookie, ctxID: l.CtxID, opaque: l.Opaque,
		passive: true, peerISS: peerISS, lst: l, mss: mss,
	}, true
}
