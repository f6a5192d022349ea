package tas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/shmring"
)

// TestAppCrashReapedWhileNeighborUnharmed is the headline isolation
// property (§3.3): two application contexts share one TAS instance;
// app A is killed mid-transfer and must be fully reclaimed — flows
// RST, flow-table entries and rate buckets freed, payload buffers
// returned, context slot reusable, listen port free — while app B's
// concurrent SHA-256-verified transfer completes untouched.
func TestAppCrashReapedWhileNeighborUnharmed(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-heavy chaos test; plain run covers it")
	}
	_, srv, cli := newPair(t, chaosCfg())

	// Server side: one accept loop per app.
	sctxA, sctxB := srv.NewContext(), srv.NewContext()
	lnA, err := sctxA.Listen(9001)
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := sctxB.Listen(9002)
	if err != nil {
		t.Fatal(err)
	}
	errA := make(chan error, 1)
	go func() { // A's server: discard until the stream breaks
		c, err := lnA.Accept(5 * time.Second)
		if err != nil {
			errA <- err
			return
		}
		buf := make([]byte, 32<<10)
		for {
			if _, err := c.Read(buf); err != nil {
				errA <- err
				return
			}
		}
	}()
	digestB := make(chan []byte, 1)
	errB := make(chan error, 1)
	go func() { // B's server: hash framed payload, return the digest
		c, err := lnB.Accept(5 * time.Second)
		if err != nil {
			errB <- err
			return
		}
		h := sha256.New()
		hdr := make([]byte, 4)
		buf := make([]byte, 32<<10)
		for {
			if _, err := io.ReadFull(c, hdr); err != nil {
				errB <- err
				return
			}
			n := binary.BigEndian.Uint32(hdr)
			if n == 0 {
				break
			}
			if _, err := io.ReadFull(c, buf[:n]); err != nil {
				errB <- err
				return
			}
			h.Write(buf[:n])
		}
		if _, err := c.Write(h.Sum(nil)); err != nil {
			errB <- err
			return
		}
		digestB <- h.Sum(nil)
	}()

	// Client side: apps A and B share the client TAS instance.
	ctxA, ctxB := cli.NewContext(), cli.NewContext()
	idA := ctxA.LowLevel().ID
	if _, err := ctxA.Listen(7777); err != nil { // a port A holds when it dies
		t.Fatal(err)
	}
	connA, err := ctxA.Dial("10.0.0.1", 9001)
	if err != nil {
		t.Fatal(err)
	}
	flowA := connA.c.Flow()
	connB, err := ctxB.Dial("10.0.0.1", 9002)
	if err != nil {
		t.Fatal(err)
	}

	// App A streams until its world ends.
	senderA := make(chan error, 1)
	go func() {
		chunk := make([]byte, 4<<10)
		for {
			if _, err := connA.WriteTimeout(chunk, 5*time.Second); err != nil {
				senderA <- err
				return
			}
		}
	}()

	// App B paces a framed transfer that deliberately spans the crash:
	// it keeps sending until the reaper has fired, then finishes.
	h := sha256.New()
	chunk := make([]byte, 8<<10)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	sendFrame := func(p []byte) {
		t.Helper()
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
		if _, err := connB.Write(hdr[:]); err != nil {
			t.Fatalf("B header: %v", err)
		}
		if len(p) == 0 {
			return
		}
		if _, err := connB.Write(p); err != nil {
			t.Fatalf("B payload: %v", err)
		}
		h.Write(p)
	}
	for i := 0; i < 8; i++ {
		sendFrame(chunk)
	}
	ctxA.Kill() // crash app A mid-transfer

	deadline := time.Now().Add(10 * time.Second)
	for cli.Stats().AppsReaped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("app A never reaped")
		}
		sendFrame(chunk) // B's transfer continues across the crash
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		sendFrame(chunk)
	}
	sendFrame(nil) // end-of-stream

	// B's transfer must complete and verify.
	var got []byte
	select {
	case got = <-digestB:
	case err := <-errB:
		t.Fatalf("B server: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("B digest never arrived")
	}
	want := h.Sum(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("B digest mismatch: got %x want %x", got, want)
	}
	echo := make([]byte, sha256.Size)
	if _, err := io.ReadFull(connB, echo); err != nil {
		t.Fatalf("B digest read-back: %v", err)
	}
	if !bytes.Equal(echo, want) {
		t.Fatalf("B read-back mismatch: got %x want %x", echo, want)
	}

	// A's sender observed the crash...
	select {
	case err := <-senderA:
		if !ErrReset(err) && !ErrAppDead(err) {
			t.Fatalf("A sender error = %v, want reset or app-dead", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("A's sender never failed")
	}
	// ...and so did A's peer (best-effort RST).
	select {
	case err := <-errA:
		if !ErrReset(err) {
			t.Fatalf("A server error = %v, want reset", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("A's server half never saw the abort")
	}

	// Everything A held is back in the free pools.
	st := cli.Stats()
	if st.AppsReaped != 1 || st.FlowsReaped < 1 || st.ListenersReaped != 1 {
		t.Fatalf("reap counters: %+v", st)
	}
	if !flowA.RxBuf.Reclaimed() || !flowA.TxBuf.Reclaimed() {
		t.Fatal("A's payload buffers not reclaimed")
	}
	if cli.Engine().ContextByID(uint16(idA)) != nil {
		t.Fatal("A's context slot not released")
	}
	if !flowA.Retired() {
		t.Fatal("A's flow not retired: its charges were not returned")
	}
	checkControl(t, "after app reap", srv, cli)
	// The context slot and the listen port are immediately reusable.
	fresh := cli.NewContext()
	if fresh.LowLevel().ID != idA {
		t.Fatalf("fresh context got slot %d, want reused slot %d", fresh.LowLevel().ID, idA)
	}
	if _, err := fresh.Listen(7777); err != nil {
		t.Fatalf("re-listen on A's port: %v", err)
	}
	// B was never touched.
	if err := connB.Close(); err != nil {
		t.Fatalf("B close: %v", err)
	}
}

// TestAppReapedSendsFailOnEveryPath: once a context is reaped its
// flows' buffers are reclaimed and silently refuse writes, and no abort
// event reaches a dead context — so every send path, not just the
// blocking one, must report the death itself instead of "succeeding".
func TestAppReapedSendsFailOnEveryPath(t *testing.T) {
	_, srv, cli := newPair(t, chaosCfg())
	ln, err := srv.NewContext().Listen(9003)
	if err != nil {
		t.Fatal(err)
	}
	go ln.Accept(5 * time.Second)
	ctx := cli.NewContext()
	conn, err := ctx.Dial("10.0.0.1", 9003)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for cli.Stats().AppsReaped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("app never reaped")
		}
		time.Sleep(time.Millisecond)
	}
	msg := []byte("into the void")
	if n, err := conn.c.SendNoWait(msg); n != 0 || !ErrAppDead(err) {
		t.Fatalf("SendNoWait on a reaped context = %d, %v; want 0, app-dead", n, err)
	}
	filled := false
	n, err := conn.WriteZeroCopy(len(msg), func(a, b []byte) int { filled = true; return copy(a, msg) })
	if n != 0 || !ErrAppDead(err) || filled {
		t.Fatalf("WriteZeroCopy on a reaped context = %d, %v (fill called: %v); want 0, app-dead, no fill", n, err, filled)
	}
	if n, err := conn.WriteTimeout(msg, time.Second); n != 0 || !ErrAppDead(err) {
		t.Fatalf("Write on a reaped context = %d, %v; want 0, app-dead", n, err)
	}
}

// TestAcceptBacklogOverflowShedsSyns: a listener with backlog 4 and a
// slow accepter sheds the fifth concurrent connection (silent SYN drop,
// counted, no RST), and accepting connections opens the gate again.
func TestAcceptBacklogOverflowShedsSyns(t *testing.T) {
	_, srv, cli := newPair(t, chaosCfg())
	sctx := srv.NewContext()
	ln, err := sctx.ListenBacklog(9090, 4)
	if err != nil {
		t.Fatal(err)
	}
	cctx := cli.NewContext()

	var conns []*Conn
	for i := 0; i < 4; i++ {
		c, err := cctx.DialTimeout("10.0.0.1", 9090, 2*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, c)
	}
	// The accept queue is full: the next SYN must be shed and the dial
	// time out on the client's handshake retry budget.
	if _, err := cctx.DialTimeout("10.0.0.1", 9090, 2*time.Second); !ErrTimeout(err) {
		t.Fatalf("overflow dial err = %v, want timeout", err)
	}
	if got := srv.Stats().SynBacklogDrops; got == 0 {
		t.Fatal("no SynBacklogDrops counted")
	}

	// Accepting drains the queue and frees backlog slots.
	if _, err := ln.Accept(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	c, err := cctx.DialTimeout("10.0.0.1", 9090, 2*time.Second)
	if err != nil {
		t.Fatalf("dial after accept: %v", err)
	}
	c.Close()
	for _, c := range conns {
		c.Close()
	}
}

// corruptQueue simulates a buggy or malicious application handing the
// fast path garbage through its TX-request entry point: it pushes n
// garbage requests (bad opcodes, nil and bogus flow references,
// impossible byte counts) drawn from seed, returning how many were
// actually queued (the request rings are bounded). The fast path must
// drop and count every one without corrupting state or panicking.
func corruptQueue(svc *Service, ctx *Context, seed int64, n int) int {
	fp := ctx.LowLevel()
	rng := rand.New(rand.NewSource(seed))
	injected := 0
	for i := 0; i < n; i++ {
		var f *flowstate.Flow
		switch rng.Intn(3) {
		case 0:
			// nil flow reference.
		case 1:
			// A fabricated flow object that is not in the flow table.
			f = &flowstate.Flow{
				LocalIP:   protocol.MakeIPv4(192, 0, 2, byte(rng.Intn(256))),
				LocalPort: uint16(rng.Intn(1 << 16)),
				PeerIP:    protocol.MakeIPv4(198, 51, 100, byte(rng.Intn(256))),
				PeerPort:  uint16(rng.Intn(1 << 16)),
				RxBuf:     shmring.NewPayloadBuffer(64),
				TxBuf:     shmring.NewPayloadBuffer(64),
			}
			f.RxBuf.Reclaim() // keep the fake out of pool accounting
			f.TxBuf.Reclaim()
		case 2:
			// A structurally broken flow (missing buffers).
			f = &flowstate.Flow{}
		}
		cmd := fastpath.TxCmd{
			Op:    uint8(rng.Intn(8)), // mostly invalid opcodes; OpTx hits still fail flow checks
			Flow:  f,
			Bytes: rng.Uint32(),
		}
		if svc.Engine().PushTxCmd(fp, cmd) {
			injected++
		}
	}
	return injected
}

// TestCorruptQueueInjectionHarmless: garbage TX requests an app pushes
// are dropped and counted, and the service keeps
// serving the same connection correctly afterwards.
func TestCorruptQueueInjectionHarmless(t *testing.T) {
	_, srv, cli := newPair(t, chaosCfg())
	sctx := srv.NewContext()
	ln, err := sctx.Listen(9091)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 1024)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	cctx := cli.NewContext()
	conn, err := cctx.Dial("10.0.0.1", 9091)
	if err != nil {
		t.Fatal(err)
	}
	roundtrip := func(msg string) {
		t.Helper()
		if _, err := conn.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != msg {
			t.Fatalf("echo = %q, want %q", buf, msg)
		}
	}
	roundtrip("before")

	injected := corruptQueue(cli, cctx, 42, 64)
	if injected == 0 {
		t.Fatal("nothing injected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for int(cli.Stats().BadDesc) < injected {
		if time.Now().After(deadline) {
			t.Fatalf("BadDesc = %d, want %d", cli.Stats().BadDesc, injected)
		}
		time.Sleep(time.Millisecond)
	}
	// The connection — and the service — survived the attack.
	roundtrip("after")
}

// TestCloseAfterAbortIdempotent: Close on an aborted connection is a
// local no-op that reports ErrReset, on both the crashed app's own
// connections and the surviving peer's — and repeat calls agree.
func TestCloseAfterAbortIdempotent(t *testing.T) {
	_, srv, cli := newPair(t, chaosCfg())
	sctx := srv.NewContext()
	ln, err := sctx.Listen(9093)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err == nil {
			accepted <- c
		}
	}()
	cctx := cli.NewContext()
	conn, err := cctx.Dial("10.0.0.1", 9093)
	if err != nil {
		t.Fatal(err)
	}
	var peer *Conn
	select {
	case peer = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept never completed")
	}

	cctx.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for cli.Stats().AppsReaped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never reaped")
		}
		time.Sleep(time.Millisecond)
	}
	// The dead app's own handle: reset, idempotently.
	if err := conn.Close(); !ErrReset(err) {
		t.Fatalf("first Close = %v, want reset", err)
	}
	if err := conn.Close(); !ErrReset(err) {
		t.Fatalf("second Close = %v, want reset", err)
	}
	// The surviving peer, once it observes the RST: same contract.
	deadline = time.Now().Add(10 * time.Second)
	for !peer.Aborted() {
		if time.Now().After(deadline) {
			t.Fatal("peer never saw the abort")
		}
		time.Sleep(time.Millisecond)
	}
	if err := peer.Close(); !ErrReset(err) {
		t.Fatalf("peer first Close = %v, want reset", err)
	}
	if err := peer.Close(); !ErrReset(err) {
		t.Fatalf("peer second Close = %v, want reset", err)
	}
}

// TestReapedFinWait2FlowReleasesGauge: a flow whose app is reaped while
// it sits in FIN_WAIT_2 — the client closed, its FIN was acknowledged,
// the server holds its direction open — must leave through the same
// teardown as every other flow: out of the table, off the timer pool,
// and out of the tas_flows_fin_wait2 gauge.
func TestReapedFinWait2FlowReleasesGauge(t *testing.T) {
	cfg := chaosCfg()
	cfg.FinWait2Timeout = time.Minute // the reaper must win, not the timeout
	_, srv, cli := newPair(t, cfg)
	ln, err := srv.NewContext().Listen(9094)
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan *Conn, 1)
	go func() { // accept and never close: the client stays in FIN_WAIT_2
		if c, err := ln.Accept(5 * time.Second); err == nil {
			held <- c
		}
	}()
	cctx := cli.NewContext()
	conn, err := cctx.Dial("10.0.0.1", 9094)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	waitStat := func(what string, ok func(ServiceStats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok(cli.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened: %+v", what, cli.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitStat("FIN_WAIT_2", func(st ServiceStats) bool { return st.FlowsFinWait2 == 1 })
	cctx.Kill()
	waitStat("reap", func(st ServiceStats) bool { return st.AppsReaped == 1 })
	st := cli.Stats()
	if st.FlowsLive != 0 || st.FlowsFinWait2 != 0 || st.PoolUsed["timers"] != 0 {
		t.Fatalf("after the reap: %d flows live, FIN_WAIT_2 gauge %d, %d timers charged; want 0, 0, 0",
			st.FlowsLive, st.FlowsFinWait2, st.PoolUsed["timers"])
	}
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted")
	}
}

// TestNewContextStartsNoGoroutine: a context is queues and a slot, not a
// goroutine — nothing runs on an application's behalf between its calls,
// so a thousand contexts leave the goroutine count where it was.
func TestNewContextStartsNoGoroutine(t *testing.T) {
	svc, err := NewFabric().NewService("10.0.0.1", Config{MaxCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		svc.NewContext()
	}
	if grew := runtime.NumGoroutine() - before; grew > 8 {
		t.Fatalf("1000 contexts started %d goroutines", grew)
	}
}

// TestReapWhileRebinding: a reap walks the flow table for the exited
// context's flows while another goroutine moves a live connection back
// and forth between two contexts. Rebind writes the flow's owner under
// the flow lock, so the reap must read it there too (-race checks it).
func TestReapWhileRebinding(t *testing.T) {
	_, srv, cli := newPair(t, chaosCfg())
	ln, err := srv.NewContext().Listen(9096)
	if err != nil {
		t.Fatal(err)
	}
	go ln.Accept(5 * time.Second)
	a, b := cli.NewContext(), cli.NewContext()
	conn, err := a.Dial("10.0.0.1", 9096)
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			conn.Rebind([]*Context{b, a}[i%2])
		}
	}()
	for i := uint64(1); i <= 5; i++ {
		cli.NewContext().Kill()
		deadline := time.Now().Add(5 * time.Second)
		for cli.Stats().AppsReaped < i {
			if time.Now().After(deadline) {
				t.Fatalf("exit %d never reaped", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done
	if a.LowLevel().Dead() || b.LowLevel().Dead() {
		t.Fatal("a rebinding context was reaped")
	}
	if _, err := conn.WriteTimeout([]byte("still here"), time.Second); err != nil {
		t.Fatalf("write after the reaps: %v", err)
	}
}
