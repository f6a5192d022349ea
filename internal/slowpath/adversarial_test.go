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
	deadline := time.Now().Add(2 * time.Second)
	for {
		fb.Lock()
		got := fb.RxBuf.Used()
		fb.Unlock()
		if got == len("cookie payload") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("payload not delivered (got %d bytes)", got)
		}
		time.Sleep(time.Millisecond)
	}
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
	deadline := time.Now().Add(2 * time.Second)
	for b.sp.ctr.SynCookiesSent.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flood never engaged cookies (half=%d drops=%d)",
				b.sp.HalfOpenCount(), b.sp.ctr.SynBacklogDrops.Load())
		}
		flood(64, 4096)
		time.Sleep(time.Millisecond)
	}

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
	deadline = time.Now().Add(2 * time.Second)
	for b.sp.ctr.SynCookiesValidated.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("legit handshake did not complete via cookie validation (sent=%d rejected=%d half=%d)",
				b.sp.ctr.SynCookiesSent.Load(), b.sp.ctr.SynCookiesRejected.Load(), b.sp.HalfOpenCount())
		}
		time.Sleep(time.Millisecond)
	}
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
	fab.Tap = func(ts int64, pkt *protocol.Packet) {
		if pkt.SrcIP == ipA && pkt.Flags == protocol.FlagACK && pkt.Seq == localSeq && pkt.Ack == expect {
			challenges.Add(1)
		}
	}
	defer func() { fab.Tap = nil }()

	rst := func(seq uint32) {
		a.eng.Input(&protocol.Packet{
			SrcIP: ipB, DstIP: ipA,
			SrcPort: f.PeerPort, DstPort: f.LocalPort,
			Flags: protocol.FlagRST, Seq: seq,
		})
	}

	// In-window but inexact: challenge ACK, connection survives.
	rst(expect + 1000)
	deadline := time.Now().Add(time.Second)
	for challenges.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-window RST drew no challenge ACK")
		}
		time.Sleep(time.Millisecond)
	}
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
	deadline = time.Now().Add(time.Second)
	for a.eng.Table.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("exact-sequence RST did not tear down")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlindRstCannotKillHandshakes: RSTs against half-open state are
// validated too. A passive half-open only dies to the sequence our
// SYN-ACK acknowledged; an active open only to an RST|ACK of exactly
// our ISS+1.
func TestBlindRstCannotKillHandshakes(t *testing.T) {
	fab := fabric.New()
	ipB := protocol.MakeIPv4(10, 0, 0, 2)
	b := newNode(t, fab, ipB, fastCfg())
	b.sp.Listen(80, 0, 1)

	// Passive half-open from a ghost SYN.
	ghost := protocol.MakeIPv4(10, 0, 0, 99)
	b.eng.Input(&protocol.Packet{
		SrcIP: ghost, DstIP: ipB, SrcPort: 4000, DstPort: 80,
		Flags: protocol.FlagSYN, Seq: 5000,
	})
	key := protocol.FlowKey{LocalIP: ipB, LocalPort: 80, RemoteIP: ghost, RemotePort: 4000}
	deadline := time.Now().Add(time.Second)
	for b.sp.lookupHalf(key) == nil {
		if time.Now().After(deadline) {
			t.Fatal("half-open never created")
		}
		time.Sleep(time.Millisecond)
	}
	// Blind RST (wrong seq): entry survives.
	b.eng.Input(&protocol.Packet{
		SrcIP: ghost, DstIP: ipB, SrcPort: 4000, DstPort: 80,
		Flags: protocol.FlagRST, Seq: 9999,
	})
	time.Sleep(20 * time.Millisecond)
	if b.sp.lookupHalf(key) == nil {
		t.Fatal("blind RST reaped the passive half-open")
	}
	if b.sp.ctr.BlindRstDrops.Load() == 0 {
		t.Fatal("blind RST not counted")
	}
	// Exact RST (seq == peerISS+1): reaped.
	b.eng.Input(&protocol.Packet{
		SrcIP: ghost, DstIP: ipB, SrcPort: 4000, DstPort: 80,
		Flags: protocol.FlagRST, Seq: 5001,
	})
	deadline = time.Now().Add(time.Second)
	for b.sp.lookupHalf(key) != nil {
		if time.Now().After(deadline) {
			t.Fatal("exact RST did not reap the half-open")
		}
		time.Sleep(time.Millisecond)
	}

	// Active open toward an unattached peer: the half-open must survive
	// RSTs that don't ack our ISS.
	ipGhost := protocol.MakeIPv4(10, 0, 0, 77)
	lport, err := b.sp.Connect(ipGhost, 81, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	akey := protocol.FlowKey{LocalIP: ipB, LocalPort: lport, RemoteIP: ipGhost, RemotePort: 81}
	h := b.sp.lookupHalf(akey)
	if h == nil {
		t.Fatal("active half-open missing")
	}
	b.eng.Input(&protocol.Packet{
		SrcIP: ipGhost, DstIP: ipB, SrcPort: 81, DstPort: lport,
		Flags: protocol.FlagRST | protocol.FlagACK, Ack: h.iss + 12345,
	})
	b.eng.Input(&protocol.Packet{ // no ACK flag at all
		SrcIP: ipGhost, DstIP: ipB, SrcPort: 81, DstPort: lport,
		Flags: protocol.FlagRST, Seq: 1,
	})
	time.Sleep(20 * time.Millisecond)
	if b.sp.lookupHalf(akey) == nil {
		t.Fatal("blind RST killed the active open")
	}
	// The legitimate refusal form lands.
	b.eng.Input(&protocol.Packet{
		SrcIP: ipGhost, DstIP: ipB, SrcPort: 81, DstPort: lport,
		Flags: protocol.FlagRST | protocol.FlagACK, Ack: h.iss + 1,
	})
	ev := waitCtlEvent(t, b.ctx, 2*time.Second)
	if ev.Kind != fastpath.EvConnected || ev.Bytes != fastpath.ConnRefused {
		t.Fatalf("event = %+v, want ConnRefused", ev)
	}
}

// TestSpoofedSynCannotDisturbActiveOpen: a spoofed SYN matching an
// in-flight active open's 4-tuple must neither perturb the handshake
// nor touch any listener's backlog accounting (the dropHalf audit).
func TestSpoofedSynCannotDisturbActiveOpen(t *testing.T) {
	fab := fabric.New()
	ipB := protocol.MakeIPv4(10, 0, 0, 2)
	b := newNode(t, fab, ipB, fastCfg())

	ipGhost := protocol.MakeIPv4(10, 0, 0, 77)
	lport, err := b.sp.Connect(ipGhost, 81, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	key := protocol.FlowKey{LocalIP: ipB, LocalPort: lport, RemoteIP: ipGhost, RemotePort: 81}
	h := b.sp.lookupHalf(key)
	if h == nil || h.passive {
		t.Fatalf("active half-open missing or wrong kind: %+v", h)
	}
	issBefore := h.iss

	b.eng.Input(&protocol.Packet{
		SrcIP: ipGhost, DstIP: ipB, SrcPort: 81, DstPort: lport,
		Flags: protocol.FlagSYN, Seq: 31337,
	})
	time.Sleep(20 * time.Millisecond)
	h2 := b.sp.lookupHalf(key)
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
	st := &stripe{
		listeners: map[uint16]*listener{80: l},
		half:      make(map[protocol.FlowKey]*halfOpen),
	}
	key := protocol.FlowKey{LocalPort: 40000}
	h := &halfOpen{key: key, passive: false, lst: l} // corrupt: active with lst set
	st.half[key] = h
	st.dropHalf(key, h)
	if l.halfCount != 3 {
		t.Fatalf("active-open drop changed listener halfCount: %d", l.halfCount)
	}
	// A passive entry does release its slot.
	h2 := &halfOpen{key: key, passive: true, lst: l}
	st.half[key] = h2
	st.dropHalf(key, h2)
	if l.halfCount != 2 {
		t.Fatalf("passive drop did not release the slot: %d", l.halfCount)
	}
}

// TestEstablishedSynDrawsChallengeNotReset: RFC 5961 §4 — a SYN
// matching an established connection must not reset or duplicate it.
func TestEstablishedSynDrawsChallengeNotReset(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, Config{})
	b := newNode(t, fab, ipB, Config{})
	f, _ := establish(t, a, b, ipB)

	a.eng.Input(&protocol.Packet{
		SrcIP: ipB, DstIP: ipA,
		SrcPort: f.PeerPort, DstPort: f.LocalPort,
		Flags: protocol.FlagSYN, Seq: 12345,
	})
	time.Sleep(20 * time.Millisecond)
	if a.eng.Table.Len() != 1 {
		t.Fatal("spoofed SYN disturbed the established flow")
	}
	if a.sp.HalfOpenCount() != 0 {
		t.Fatal("spoofed SYN created a shadow half-open for a live connection")
	}
}

// TestStripedDialsConcurrent exercises the striped tables under the
// race detector: concurrent dials across many ports, against listeners
// spread across stripes, while a spoofed flood hammers one port.
func TestStripedDialsConcurrent(t *testing.T) {
	fab := fabric.New()
	ipA, ipB := protocol.MakeIPv4(10, 0, 0, 1), protocol.MakeIPv4(10, 0, 0, 2)
	a := newNode(t, fab, ipA, Config{})
	b := newNode(t, fab, ipB, Config{HandshakeStripes: 8})
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
		// flooded stripe, and an unthrottled spin starves the dialing
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
	deadline := time.Now().Add(20 * time.Second)
	var evs [64]fastpath.Event
	for got < dials && time.Now().Before(deadline) {
		n := a.ctx.PollEvents(evs[:])
		for i := 0; i < n; i++ {
			if evs[i].Kind == fastpath.EvConnected && evs[i].Flow != nil {
				got++
			}
		}
		time.Sleep(time.Millisecond)
	}
	close(stopFlood)
	floodWG.Wait()
	if got != dials {
		t.Fatalf("connected %d/%d dials under flood", got, dials)
	}
}
