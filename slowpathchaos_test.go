package tas

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
)

// slowpathChaosCfg tunes the control-plane failure domain for fast
// tests: a 50ms control interval makes the configured RTO
// (stallIntervals × ControlInterval) an even 100ms, and a 200ms
// slow-path timeout bounds degraded-mode detection.
func slowpathChaosCfg() Config {
	return Config{
		ControlInterval:  50 * time.Millisecond,
		SlowPathTimeout:  200 * time.Millisecond,
		HandshakeRTO:     20 * time.Millisecond,
		HandshakeRetries: 3,
		MaxRetransmits:   8,
		Telemetry:        TelemetryConfig{Enabled: true},
	}
}

// TestChaosSlowPathCrashMidTransfer is the control-plane failure-domain
// acceptance test: the client's slow path is killed mid-transfer under
// burst loss, the fast path degrades (established flows keep moving,
// new work fails fast), a warm restart reconstructs every flow, the
// post-recovery RTO fires within 2× the configured RTO, and both
// transfers complete SHA-256-intact.
func TestChaosSlowPathCrashMidTransfer(t *testing.T) {
	fab, srv, cli := newPair(t, slowpathChaosCfg())
	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}

	const nConns = 2
	const total = 64 << 10
	payloads := make([][]byte, nConns)
	for i := range payloads {
		payloads[i] = make([]byte, total)
		rand.New(rand.NewSource(int64(i + 1))).Read(payloads[i])
	}

	type result struct {
		sum [32]byte
		err error
	}
	results := make(chan result, nConns)
	for i := 0; i < nConns; i++ {
		go func() {
			c, err := ln.Accept(10 * time.Second)
			if err != nil {
				results <- result{err: err}
				return
			}
			var got bytes.Buffer
			buf := make([]byte, 16<<10)
			for {
				n, err := c.ReadTimeout(buf, 30*time.Second)
				if n > 0 {
					got.Write(buf[:n])
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					results <- result{err: err}
					return
				}
			}
			results <- result{sum: sha256.Sum256(got.Bytes())}
		}()
	}

	conns := make([]*Conn, nConns)
	for i := range conns {
		c, err := cli.NewContext().Dial("10.0.0.1", 8080)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}

	// Phase A: half of each payload flows while everything is healthy.
	for i, c := range conns {
		if _, err := c.WriteTimeout(payloads[i][:total/2], 10*time.Second); err != nil {
			t.Fatalf("healthy write on conn %d: %v", i, err)
		}
	}

	// Phase B: burst loss, then the control plane dies mid-transfer.
	fab.SetBurstLoss(GEConfig{PGoodToBad: 0.02, PBadToGood: 0.3, LossGood: 0, LossBad: 0.5}, 7)
	cli.Slow().Kill()

	deadline := time.Now().Add(5 * time.Second)
	for !cli.Degraded() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !cli.Degraded() {
		t.Fatal("fast path never entered degraded mode")
	}
	if got := cli.Stats().SlowPathOutages; got < 1 {
		t.Fatalf("SlowPathOutages = %d, want >= 1", got)
	}

	// While degraded, new work fails fast with a typed error instead of
	// queueing for a control plane that is not there.
	start := time.Now()
	if _, err := cli.NewContext().DialTimeout("10.0.0.1", 8080, 5*time.Second); !ErrSlowPathDown(err) {
		t.Fatalf("degraded Dial: %v, want ErrSlowPathDown", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("degraded Dial took %v, want fast failure", elapsed)
	}
	if _, err := cli.NewContext().Listen(9999); !ErrSlowPathDown(err) {
		t.Fatalf("degraded Listen: %v, want ErrSlowPathDown", err)
	}

	// Established flows still accept and move data during the outage
	// (ACK-clocked delivery plus fast retransmit need no slow path).
	for i, c := range conns {
		if _, err := c.WriteTimeout(payloads[i][total/2:total-4096], 10*time.Second); err != nil {
			t.Fatalf("degraded write on conn %d: %v", i, err)
		}
	}
	fab.ClearBurstLoss()

	// Phase C: force a stall only an RTO can clear — the final chunk of
	// conn 0 goes out into a fully lossy fabric. With the slow path
	// dead there is no RTO detection: the retransmission counter stays
	// frozen for the rest of the outage (lossy flows stall until
	// recovery; that is the documented degraded-mode semantics).
	timeoutsBefore := cli.Slow().Counters().Timeouts
	fab.SetLoss(1.0)
	if _, err := conns[0].WriteTimeout(payloads[0][total-4096:], 10*time.Second); err != nil {
		t.Fatalf("stalled-chunk write: %v", err)
	}
	time.Sleep(300 * time.Millisecond) // 3× the configured RTO
	if got := cli.Slow().Counters().Timeouts; got != timeoutsBefore {
		t.Fatalf("RTO fired during outage: Timeouts %d -> %d", timeoutsBefore, got)
	}

	// Phase D: warm restart. Every live flow must be reconstructed.
	pre := cli.Engine().Table.Len()
	if pre != nConns {
		t.Fatalf("pre-crash table holds %d flows, want %d", pre, nConns)
	}
	rep := cli.Restart()
	if rep.FlowsReconstructed != pre || rep.FlowsAborted != 0 {
		t.Fatalf("recovery: %+v, want %d reconstructed, 0 aborted", rep, pre)
	}
	restartDone := time.Now()
	checkControl(t, "after warm restart", srv, cli)

	// The watchdog observes the resumed heartbeat and leaves degraded
	// mode.
	deadline = time.Now().Add(5 * time.Second)
	for cli.Degraded() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if cli.Degraded() {
		t.Fatal("fast path never recovered from degraded mode")
	}

	// The reconstructed RTO state must detect the stalled chunk within
	// 2× the configured RTO (stallIntervals × ControlInterval = 100ms).
	rtoDeadline := restartDone.Add(2 * 2 * 50 * time.Millisecond)
	for cli.Slow().Counters().Timeouts == timeoutsBefore && time.Now().Before(rtoDeadline) {
		time.Sleep(2 * time.Millisecond)
	}
	rtoAt := time.Now()
	if got := cli.Slow().Counters().Timeouts; got == timeoutsBefore {
		t.Fatalf("post-recovery RTO did not fire within %v", 2*2*50*time.Millisecond)
	}
	t.Logf("post-recovery RTO after %v (budget %v)", rtoAt.Sub(restartDone), 2*2*50*time.Millisecond)

	// Heal; retransmission completes both transfers intact.
	fab.SetLoss(0)
	if _, err := conns[1].WriteTimeout(payloads[1][total-4096:], 10*time.Second); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	for _, c := range conns {
		c.Close()
	}
	for i := 0; i < nConns; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("receiver: %v", r.err)
			}
			if r.sum != sha256.Sum256(payloads[0]) && r.sum != sha256.Sum256(payloads[1]) {
				t.Fatal("byte stream corrupted across slow-path crash")
			}
		case <-time.After(30 * time.Second):
			t.Logf("cli counters: %+v", cli.Slow().Counters())
			t.Logf("cli stats: %+v", cli.Stats())
			t.Logf("srv stats: %+v", srv.Stats())
			for j, c := range conns {
				t.Logf("conn %d stats: %+v aborted=%v", j, c.Stats(), c.Aborted())
			}
			t.Fatal("transfer did not complete after recovery")
		}
	}

	checkControl(t, "after post-restart transfer", srv, cli)

	// A fresh Dial works again after recovery.
	nc, err := cli.NewContext().Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatalf("Dial after recovery: %v", err)
	}
	nc.Close()

	// The outage is fully visible in the metrics exposition.
	var b strings.Builder
	if err := cli.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"tas_slowpath_degraded 0",
		"tas_slowpath_outages_total 1",
		"tas_slowpath_restarts_total 1",
		"tas_slowpath_flows_reconstructed_total 2",
		"tas_slowpath_recovery_aborts_total 0",
		"tas_slowpath_outage_us_count 1",
		`tas_slowpath_outage_us{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestChaosDegradedServerShedsSyns: a server whose control plane is
// down sheds incoming SYNs at the fast-path door (counted under its own
// cause) so the peer's handshake times out cleanly, and a warm restart
// restores admission.
func TestChaosDegradedServerShedsSyns(t *testing.T) {
	_, srv, cli := newPair(t, slowpathChaosCfg())
	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept(30 * time.Second)
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	// Prove liveness, then kill the server's control plane.
	c, err := cli.NewContext().Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Slow().Kill()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Degraded() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !srv.Degraded() {
		t.Fatal("server never entered degraded mode")
	}

	// A new connection attempt is shed at the server's door: the SYN is
	// counted, never queued, and the client times out.
	if _, err := cli.NewContext().DialTimeout("10.0.0.1", 8080, 500*time.Millisecond); err == nil {
		t.Fatal("Dial to degraded server succeeded")
	} else if !ErrTimeout(err) {
		t.Fatalf("Dial to degraded server: %v, want timeout", err)
	}
	if got := srv.Stats().SynShedDown; got < 1 {
		t.Fatalf("SynShedDown = %d, want >= 1", got)
	}
	var b strings.Builder
	if err := srv.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `tas_drops_total{cause="syn_shed_down"}`) {
		t.Fatal("metrics missing syn_shed_down drop cause")
	}

	// Warm restart restores admission for new connections.
	srv.Restart()
	deadline = time.Now().Add(5 * time.Second)
	for srv.Degraded() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	nc, err := cli.NewContext().Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatalf("Dial after server restart: %v", err)
	}
	nc.Close()
}

// TestChaosSlowPathStallRecovers: a wedged (not crashed) control plane
// degrades the fast path for the stall's duration and recovers on its
// own once the loop resumes — no restart required.
func TestChaosSlowPathStallRecovers(t *testing.T) {
	_, srv, cli := newPair(t, slowpathChaosCfg())
	sctx := srv.NewContext()
	if _, err := sctx.Listen(8080); err != nil {
		t.Fatal(err)
	}

	faultinject.Attach(cli.Engine()).StallSlowPath(600 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for !cli.Degraded() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !cli.Degraded() {
		t.Fatal("stall never degraded the fast path")
	}
	deadline = time.Now().Add(5 * time.Second)
	for cli.Degraded() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if cli.Degraded() {
		t.Fatal("fast path never recovered after the stall ended")
	}
	st := cli.Stats()
	if st.SlowPathOutages != 1 {
		t.Fatalf("SlowPathOutages = %d, want 1", st.SlowPathOutages)
	}
	if cli.Restarts() != 0 {
		t.Fatal("stall recovery should not require a restart")
	}
}

// TestCloseSurvivesWarmRestart: a close the application asked for while
// its FIN still waited behind unsent bytes (the peer's window closed) is
// finished by the warm-restarted slow path. The FIN leaves only once the
// window reopens, from the successor; the fabric drops it once and the
// successor retransmits it; the close ends in TIME_WAIT, and the timer
// pool returns to exactly 0.
func TestCloseSurvivesWarmRestart(t *testing.T) {
	cfg := Config{RxBufSize: 16 << 10, TxBufSize: 16 << 10, PersistRTO: 20 * time.Millisecond, TimeWaitDuration: 5 * time.Second}
	fab, srv, cli := newPair(t, cfg)
	var fins atomic.Int32 // client FINs the fabric has seen; the first is lost
	fab.f.SetTap(func(_ int64, p *protocol.Packet) {
		if p.SrcIP == cli.IP && p.Flags.Has(protocol.FlagFIN) && fins.Add(1) == 1 {
			p.DstIP = protocol.MakeIPv4(10, 0, 0, 99) // no such host
		}
	})
	t.Cleanup(func() { fab.f.SetTap(nil) })

	ln, err := srv.NewContext().Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cli.NewContext().Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ln.Accept(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the server's receive buffer, and half the client's transmit
	// buffer behind it: the window closes with bytes still queued.
	payload := make([]byte, cfg.RxBufSize+cfg.TxBufSize/2)
	if _, err := c.WriteTimeout(payload, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var f *flowstate.Flow
	cli.Engine().Table.ForEach(func(g *flowstate.Flow) { f = g })
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.Lock()
		stalled := f.Window == 0 && f.TxBuf.Used() > 0
		f.Unlock()
		if stalled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the peer's window never closed on queued bytes")
		}
		time.Sleep(time.Millisecond)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	cli.Restart()
	if n := fins.Load(); n != 0 {
		t.Fatalf("%d FINs sent with bytes still queued", n)
	}

	// Reopen the window: the server reads everything, then the peer's FIN.
	got, buf := 0, make([]byte, 8<<10)
	for {
		n, err := sc.ReadTimeout(buf, 5*time.Second)
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("server read after %d bytes: %v", got, err)
		}
	}
	if got != len(payload) {
		t.Fatalf("server read %d bytes, want %d", got, len(payload))
	}
	sc.Close()

	deadline = time.Now().Add(5 * time.Second)
	for cli.Slow().TimeWaitCount() != 1 || cli.Engine().Table.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("close never reached TIME_WAIT: %d FINs seen, counters %+v", fins.Load(), cli.Slow().Counters())
		}
		time.Sleep(time.Millisecond)
	}
	if fins.Load() < 2 || cli.Slow().Counters().FinRexmits == 0 {
		t.Fatalf("the dropped FIN was not retransmitted: %d FINs seen", fins.Load())
	}
	if n := cli.Governor().Used(resource.PoolTimers); n != 0 {
		t.Fatalf("timers pool = %d after the close, want 0", n)
	}
	checkControl(t, "after the close", srv, cli)
}
