package slowpath

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
)

// lookupHalf fetches a half-open entry; the handlers work under the
// table lock directly.
func (s *Slowpath) lookupHalf(key protocol.FlowKey) *halfOpen {
	s.hs.mu.Lock()
	defer s.hs.mu.Unlock()
	return s.hs.half[key]
}

// TestSynCookieHandshakeEndToEnd: with cookies always on, a real
// handshake completes statelessly — the SYN-ACK's ISN is the cookie, no
// half-open entry is stored, and the completing ACK reconstructs the
// connection, including the peer's MSS class as a segmentation cap.
func TestSynCookieHandshakeEndToEnd(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, Config{})
	b := newNode(t, fab, ipB, Config{SynCookies: config.SynCookiesAlways})
	if err := b.sp.Listen(80, 0, 42); err != nil {
		t.Fatal(err)
	}

	if _, err := a.sp.Connect(ipB, 80, 0, 7); err != nil {
		t.Fatal(err)
	}
	evA := waitEvent(t, a.ctx, 2*time.Second)
	if evA.Kind != fastpath.EvConnected || evA.Flow == nil {
		t.Fatalf("client event: %+v", evA)
	}
	evB := waitEvent(t, b.ctx, 2*time.Second)
	if evB.Kind != fastpath.EvAccepted || evB.Flow == nil {
		t.Fatalf("server event: %+v", evB)
	}
	if got := b.sp.ctr.SynCookiesSent.Load(); got == 0 {
		t.Fatal("no cookie SYN-ACK counted")
	}
	if got := b.sp.ctr.SynCookiesValidated.Load(); got != 1 {
		t.Fatalf("SynCookiesValidated = %d, want 1", got)
	}
	if b.sp.HalfOpenCount() != 0 {
		t.Fatal("stateless handshake left a half-open entry")
	}
	// The cookie encoded the client's MSS option; the reconstructed
	// flow must carry it as a segmentation cap.
	fb := evB.Flow
	if fb.MSSCap == 0 {
		t.Fatal("cookie-reconstructed flow has no MSS cap")
	}
	if fb.MSSCap > protocol.DefaultMSS {
		t.Fatalf("MSSCap %d exceeds peer MSS %d", fb.MSSCap, protocol.DefaultMSS)
	}
	// Sequence numbers line up exactly as in a stateful handshake.
	fa := evA.Flow
	if fa.SeqNo != fb.AckNo || fb.SeqNo != fa.AckNo {
		t.Fatalf("seq mismatch: a(%d,%d) b(%d,%d)", fa.SeqNo, fa.AckNo, fb.SeqNo, fb.AckNo)
	}
	// Data flows over the reconstructed connection.
	fa.Lock()
	fa.TxBuf.Write([]byte("cookie payload"))
	fa.Unlock()
	a.eng.KickFlow(fa)
	waitCond(t, "the payload delivered", 2*time.Second, func() bool {
		fb.Lock()
		defer fb.Unlock()
		return fb.RxBuf.Used() == len("cookie payload")
	})
}

// TestSynFloodEngagesCookiesAndLegitClientConnects: a spoofed SYN flood
// saturates the listener's half-open budget; auto mode flips to
// stateless handshakes, and a legitimate client still connects while
// the flood continues.
func TestSynFloodEngagesCookiesAndLegitClientConnects(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, Config{})
	b := newNode(t, fab, ipB, Config{ListenBacklog: 32})
	if err := b.sp.Listen(80, 0, 42); err != nil {
		t.Fatal(err)
	}

	// Spoofed flood: unattached source IPs, so the SYN-ACKs vanish and
	// the half-open entries can only be reclaimed by timeout.
	flood := func(n, base int) {
		for i := 0; i < n; i++ {
			b.eng.Input(&protocol.Packet{
				SrcIP: protocol.MakeIPv4(10, 9, byte(i>>8), byte(i)), DstIP: ipB,
				SrcPort: uint16(1024 + base + i), DstPort: 80,
				Flags: protocol.FlagSYN, Seq: uint32(i), MSSOpt: 1448,
			})
		}
	}
	flood(512, 0)
	waitCond(t, "the flood to engage cookies", 2*time.Second, func() bool {
		if b.sp.ctr.SynCookiesSent.Load() != 0 {
			return true
		}
		flood(64, 4096)
		return false
	})

	// Legitimate client dials mid-flood: the stateless path admits it
	// even though the stateful backlog is saturated.
	if _, err := a.sp.Connect(ipB, 80, 0, 7); err != nil {
		t.Fatal(err)
	}
	evA := waitEvent(t, a.ctx, 2*time.Second)
	if evA.Kind != fastpath.EvConnected || evA.Flow == nil {
		t.Fatalf("client event during flood: %+v", evA)
	}
	// The client is connected the moment the SYN-ACK lands; the server
	// only validates the cookie when it processes the completing ACK, so
	// poll rather than assert instantaneously.
	waitCond(t, "the legit handshake to complete via cookie validation", 2*time.Second, func() bool {
		return b.sp.ctr.SynCookiesValidated.Load() != 0
	})
}

// TestBlindRstRejectedInWindowChallenged covers RFC 5961 §3 on an
// established flow: an out-of-window RST is dropped silently, an
// in-window-but-inexact RST draws a challenge ACK and no teardown, and
// only the exact-sequence RST kills the connection.
func TestBlindRstRejectedInWindowChallenged(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, Config{})
	b := newNode(t, fab, ipB, Config{})
	f, _ := establish(t, a, b, ipB)

	var challenges atomic.Int64
	f.Lock()
	expect := f.AckNo
	localSeq := f.SeqNo
	f.Unlock()
	fab.SetTap(func(ts int64, pkt *protocol.Packet) {
		if pkt.SrcIP == ipA && pkt.Flags == protocol.FlagACK && pkt.Seq == localSeq && pkt.Ack == expect {
			challenges.Add(1)
		}
	})
	defer fab.SetTap(nil)

	rst := func(seq uint32) {
		a.eng.Input(&protocol.Packet{
			SrcIP: ipB, DstIP: ipA,
			SrcPort: f.PeerPort, DstPort: f.LocalPort,
			Flags: protocol.FlagRST, Seq: seq,
		})
	}

	// In-window but inexact: challenge ACK, connection survives.
	rst(expect + 1000)
	waitCond(t, "a challenge ACK for the in-window RST", time.Second, func() bool { return challenges.Load() != 0 })
	// Out-of-window: dropped silently.
	rst(expect - 100000)
	time.Sleep(20 * time.Millisecond)
	if a.eng.Table.Len() != 1 {
		t.Fatal("blind RST tore down the connection")
	}
	if got := a.sp.ctr.BlindRstDrops.Load(); got < 2 {
		t.Fatalf("BlindRstDrops = %d, want >= 2", got)
	}
	// Exact sequence: real teardown.
	rst(expect)
	waitCond(t, "the exact-sequence RST to tear down", time.Second, func() bool { return a.eng.Table.Len() == 0 })
}

// TestBlindRstCannotKillHandshakes: RSTs against half-open state are
// validated too. A passive half-open only dies to the sequence our
// SYN-ACK acknowledged; an active open only to an RST|ACK of exactly
// our ISS+1.
func TestBlindRstCannotKillHandshakes(t *testing.T) {
	eng, sp, _ := newWireRig(fastCfg())
	sp.Listen(80, 0, 1)

	// Passive half-open from a ghost SYN.
	syn := ghostSyn(4000, 5000)
	sp.handleException(syn)
	key := syn.RxKey()
	if sp.lookupHalf(key) == nil {
		t.Fatal("half-open never created")
	}
	rst := func(seq uint32) {
		p := ghostSyn(4000, seq)
		p.Flags = protocol.FlagRST
		sp.handleException(p)
	}
	// Blind RST (wrong seq): entry survives.
	rst(9999)
	if sp.lookupHalf(key) == nil {
		t.Fatal("blind RST reaped the passive half-open")
	}
	if sp.ctr.BlindRstDrops.Load() == 0 {
		t.Fatal("blind RST not counted")
	}
	// Exact RST (seq == peerISS+1): reaped.
	rst(5001)
	if sp.lookupHalf(key) != nil {
		t.Fatal("exact RST did not reap the half-open")
	}

	// Active open toward an unattached peer: the half-open must survive
	// RSTs that don't ack our ISS.
	ipGhost := protocol.MakeIPv4(10, 0, 0, 77)
	lport, err := sp.Connect(ipGhost, 81, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	akey := protocol.FlowKey{LocalIP: eng.Config().LocalIP, LocalPort: lport, RemoteIP: ipGhost, RemotePort: 81}
	h := sp.lookupHalf(akey)
	if h == nil {
		t.Fatal("active half-open missing")
	}
	fromGhost := func(flags protocol.TCPFlags, seq, ack uint32) *protocol.Packet {
		return &protocol.Packet{SrcIP: ipGhost, DstIP: akey.LocalIP, SrcPort: 81, DstPort: lport, Flags: flags, Seq: seq, Ack: ack}
	}
	sp.handleException(fromGhost(protocol.FlagRST|protocol.FlagACK, 0, h.iss+12345))
	sp.handleException(fromGhost(protocol.FlagRST, 1, 0)) // no ACK flag at all
	if sp.lookupHalf(akey) == nil {
		t.Fatal("blind RST killed the active open")
	}
	// The legitimate refusal form lands.
	sp.handleException(fromGhost(protocol.FlagRST|protocol.FlagACK, 0, h.iss+1))
	if ev := nextEvent(t, eng); ev.Kind != fastpath.EvConnected || ev.Bytes != fastpath.ConnRefused {
		t.Fatalf("event = %+v, want ConnRefused", ev)
	}
}

// TestSpoofedSynCannotDisturbActiveOpen: a spoofed SYN matching an
// in-flight active open's 4-tuple must neither perturb the handshake
// nor touch any listener's backlog accounting (the dropHalf audit).
func TestSpoofedSynCannotDisturbActiveOpen(t *testing.T) {
	eng, sp, _ := newWireRig(fastCfg())

	ipGhost := protocol.MakeIPv4(10, 0, 0, 77)
	lport, err := sp.Connect(ipGhost, 81, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	key := protocol.FlowKey{LocalIP: eng.Config().LocalIP, LocalPort: lport, RemoteIP: ipGhost, RemotePort: 81}
	h := sp.lookupHalf(key)
	if h == nil || h.passive {
		t.Fatalf("active half-open missing or wrong kind: %+v", h)
	}
	issBefore := h.iss

	sp.handleException(&protocol.Packet{
		SrcIP: ipGhost, DstIP: key.LocalIP, SrcPort: 81, DstPort: lport,
		Flags: protocol.FlagSYN, Seq: 31337,
	})
	h2 := sp.lookupHalf(key)
	if h2 == nil {
		t.Fatal("spoofed SYN destroyed the active open")
	}
	if h2.passive || h2.iss != issBefore {
		t.Fatalf("spoofed SYN rewrote the handshake: passive=%v iss=%d->%d", h2.passive, issBefore, h2.iss)
	}
}

// TestDropHalfNeverTouchesListenerFromActiveOpen is the white-box half
// of the audit: even if an active-open entry somehow carried a listener
// pointer, dropHalf must not decrement that listener's halfCount —
// only passive entries own backlog slots.
func TestDropHalfNeverTouchesListenerFromActiveOpen(t *testing.T) {
	l := &listener{ListenerEntry: &flowstate.ListenerEntry{Port: 80, Backlog: 8, Pending: new(atomic.Int32)}, halfCount: 3}
	_, sp, _ := newWireRig(Config{})
	key := protocol.FlowKey{LocalPort: 40000}
	h := &halfOpen{key: key, passive: false, lst: l} // corrupt: active with lst set
	sp.hs.addHalf(h)
	sp.dropHalf(h)
	if l.halfCount != 3 {
		t.Fatalf("active-open drop changed listener halfCount: %d", l.halfCount)
	}
	// A passive entry does release its slot.
	h2 := &halfOpen{key: key, passive: true, lst: l}
	sp.hs.addHalf(h2)
	sp.dropHalf(h2)
	if l.halfCount != 2 {
		t.Fatalf("passive drop did not release the slot: %d", l.halfCount)
	}
}

// TestEstablishedSynDrawsChallengeNotReset: RFC 5961 §4 — a SYN
// matching an established connection must not reset or duplicate it.
func TestEstablishedSynDrawsChallengeNotReset(t *testing.T) {
	eng, sp, _ := newWireRig(Config{})
	f := rigFlow(eng, sp, 1, eng.NowNanos())

	sp.handleException(peerSegment(f, protocol.FlagSYN, 12345, 0))
	if eng.Table.Len() != 1 {
		t.Fatal("spoofed SYN disturbed the established flow")
	}
	if sp.HalfOpenCount() != 0 {
		t.Fatal("spoofed SYN created a shadow half-open for a live connection")
	}
}

// TestStripedDialsConcurrent exercises the handshake table under the
// race detector: concurrent dials across many ports, against several
// listeners, while a spoofed flood hammers one port.
func TestStripedDialsConcurrent(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, Config{})
	b := newNode(t, fab, ipB, Config{})
	const listeners = 8
	for p := 0; p < listeners; p++ {
		if err := b.sp.Listen(uint16(7000+p), 0, uint64(p)); err != nil {
			t.Fatal(err)
		}
	}

	stopFlood := make(chan struct{})
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		// Paced, not a busy loop: the point is lock contention on the
		// handshake table, and an unthrottled spin starves the dialing
		// goroutines outright when the whole repo's tests share the
		// machine under the race detector.
		i := 0
		for {
			select {
			case <-stopFlood:
				return
			default:
			}
			for n := 0; n < 64; n++ {
				b.eng.Input(&protocol.Packet{
					SrcIP: protocol.MakeIPv4(10, 9, byte(i>>8), byte(i)), DstIP: ipB,
					SrcPort: uint16(1024 + i%50000), DstPort: 7000,
					Flags: protocol.FlagSYN, Seq: uint32(i),
				})
				i++
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const dials = 24
	errs := make(chan error, dials)
	var wg sync.WaitGroup
	for i := 0; i < dials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := a.sp.Connect(ipB, uint16(7000+1+i%(listeners-1)), 0, uint64(100+i)); err != nil {
				errs <- fmt.Errorf("dial %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All dials complete (events delivered) despite the flood.
	got := 0
	var evs [64]fastpath.Event
	waitCond(t, "every dial to connect under the flood", 20*time.Second, func() bool {
		n := a.ctx.PollEvents(evs[:])
		for i := 0; i < n; i++ {
			if evs[i].Kind == fastpath.EvConnected && evs[i].Flow != nil {
				got++
			}
		}
		return got >= dials
	})
	close(stopFlood)
	floodWG.Wait()
	if got != dials {
		t.Fatalf("connected %d/%d dials under flood", got, dials)
	}
}

// TestExceptionDrainIsBounded: one drain handles at most excBatch
// exceptions and rings the doorbell for the rest, so the event loop
// beats — and the fast path's watchdog sees it alive — between the
// batches of a flood instead of after it.
func TestExceptionDrainIsBounded(t *testing.T) {
	_, sp, _ := newWireRig(fastCfg())
	for i := 0; i < 3*excBatch; i++ {
		sp.excq.Enqueue(ghostSyn(uint16(4000+i), 100))
	}
	for want := 2 * excBatch; want >= 0; want -= excBatch {
		sp.drainExceptions()
		if got := sp.excq.Len(); got != want {
			t.Fatalf("one drain left %d exceptions queued, want %d", got, want)
		}
		select {
		case <-sp.excWake:
			if want == 0 {
				t.Fatal("doorbell rung for an empty queue")
			}
		default:
			if want > 0 {
				t.Fatalf("%d exceptions left and the doorbell not rung", want)
			}
		}
	}
}
