package tas

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestGovernorLeakAuditSoak is the resource-accounting soak: churn
// connections through every lifecycle the stack has — graceful
// connect/transfer/close, app-crash reaping with RST teardown, and a
// warm slow-path restart mid-traffic — then audit that every governed
// pool gauge returns exactly to its pre-soak baseline on both sides.
// Any residue is a charge/release imbalance somewhere in the
// admission, teardown, reap, or recovery paths. The test is written to
// run race-enabled in CI.
func TestGovernorLeakAuditSoak(t *testing.T) {
	const payloadLen = 4 << 10
	fab := NewFabric()
	cfg := Config{
		RxBufSize: 16 << 10, TxBufSize: 16 << 10,
		ControlInterval: 2 * time.Millisecond,
		// Peer-liveness knobs for the wedge and blackhole phases. Short
		// enough to converge in test time, long enough that the healthy
		// phases (where every probe is answered) never abort anything.
		PersistRTO: 25 * time.Millisecond, MaxPersistProbes: 4,
		KeepaliveTime:     500 * time.Millisecond,
		KeepaliveInterval: 100 * time.Millisecond,
		KeepaliveProbes:   3,
	}
	srv, err := fab.NewService("10.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := fab.NewService("10.0.0.2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cli.Close() })

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	// Port 8081 backs the zero-window phase: its connections are
	// accepted but never read. Created before the baseline snapshot so
	// the listener's own footprint is part of the baseline.
	wedgeLn, err := sctx.Listen(8081)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		for {
			c, err := ln.Accept(100 * time.Millisecond)
			if err != nil {
				select {
				case <-stop:
					return
				default:
					continue
				}
			}
			srvWG.Add(1)
			go func() {
				defer srvWG.Done()
				defer c.Close()
				buf := make([]byte, payloadLen)
				for {
					for off := 0; off < len(buf); {
						n, err := c.ReadTimeout(buf[off:], 2*time.Second)
						if err != nil {
							return
						}
						off += n
					}
					sum := sha256.Sum256(buf)
					if _, err := c.WriteTimeout(sum[:], 2*time.Second); err != nil {
						return
					}
				}
			}()
		}
	}()

	// Reusable worker contexts exist before the baseline snapshot so the
	// contexts pool can be audited for exact return too: only the
	// deliberately-killed contexts from the abort phase may come and go.
	const workers = 4
	wctx := make([]*Context, workers)
	for i := range wctx {
		wctx[i] = cli.NewContext()
	}
	baseline := func(s *Service) map[string]int64 { return s.Stats().PoolUsed }
	srvBase, cliBase := baseline(srv), baseline(cli)
	for _, base := range []map[string]int64{srvBase, cliBase} {
		for pool, used := range base {
			if pool != "contexts" && used != 0 {
				t.Fatalf("pool %q dirty before soak: %d in use", pool, used)
			}
		}
	}

	transfer := func(c *Conn, payload []byte, want [32]byte) error {
		for off := 0; off < len(payload); {
			n, err := c.WriteTimeout(payload[off:], 2*time.Second)
			if err != nil {
				return fmt.Errorf("write at %d: %w", off, err)
			}
			off += n
		}
		var got [32]byte
		for off := 0; off < len(got); {
			n, err := c.ReadTimeout(got[off:], 2*time.Second)
			if err != nil {
				return fmt.Errorf("digest read at %d: %w", off, err)
			}
			off += n
		}
		if got != want {
			return fmt.Errorf("digest mismatch")
		}
		return nil
	}

	// Phase 1: graceful churn — connect, transfer, verify, close.
	cycles := 12
	if testing.Short() {
		cycles = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(211 + w)))
			payload := make([]byte, payloadLen)
			rng.Read(payload)
			want := sha256.Sum256(payload)
			for i := 0; i < cycles; i++ {
				c, err := wctx[w].DialTimeout("10.0.0.1", 8080, 2*time.Second)
				if err != nil {
					errs <- fmt.Errorf("worker %d cycle %d dial: %w", w, i, err)
					return
				}
				err = transfer(c, payload, want)
				c.Close()
				if err != nil {
					errs <- fmt.Errorf("worker %d cycle %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Phase 2: abort paths — two throwaway contexts dial in, push a
	// partial payload (so the server handler is parked in a read), then
	// die. The reaper must reclaim the contexts and their flows, RST the
	// peers, and return every charge.
	reapedBefore := cli.Stats().AppsReaped
	for k := 0; k < 2; k++ {
		doomed := cli.NewContext()
		for j := 0; j < 2; j++ {
			c, err := doomed.DialTimeout("10.0.0.1", 8080, 2*time.Second)
			if err != nil {
				t.Fatalf("abort-phase dial: %v", err)
			}
			if _, err := c.WriteTimeout(bytes.Repeat([]byte{0xAB}, 1024), 2*time.Second); err != nil {
				t.Fatalf("abort-phase write: %v", err)
			}
		}
		doomed.Kill()
	}
	deadline := time.Now().Add(5 * time.Second)
	for cli.Stats().AppsReaped < reapedBefore+2 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper never collected the killed contexts (reaped %d, want %d)",
				cli.Stats().AppsReaped, reapedBefore+2)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: warm restart mid-traffic — live flows must survive the
	// slow-path restart with their charges intact (recovery rebuilds the
	// governor's view from the flow table, not from scratch), and closing
	// them afterwards must release everything.
	rng := rand.New(rand.NewSource(997))
	payload := make([]byte, payloadLen)
	rng.Read(payload)
	want := sha256.Sum256(payload)
	var held []*Conn
	for j := 0; j < 2; j++ {
		c, err := wctx[0].DialTimeout("10.0.0.1", 8080, 2*time.Second)
		if err != nil {
			t.Fatalf("restart-phase dial: %v", err)
		}
		held = append(held, c)
		if err := transfer(c, payload, want); err != nil {
			t.Fatalf("restart-phase pre-transfer: %v", err)
		}
	}
	srv.Restart()
	for _, c := range held {
		if err := transfer(c, payload, want); err != nil {
			t.Fatalf("transfer across warm restart: %v", err)
		}
		c.Close()
	}

	// Phase 4: zero-window wedge — the server accepts on the wedge port
	// but never reads, so the sender's window closes for good. The
	// persist budget (4 probes at 25ms base) must run dry into a
	// peer-dead verdict, and both sides must return every charge.
	zwBefore := cli.Stats().PeerDeadZeroWindow
	wc, err := wctx[1].DialTimeout("10.0.0.1", 8081, 2*time.Second)
	if err != nil {
		t.Fatalf("wedge-phase dial: %v", err)
	}
	sc, err := wedgeLn.Accept(2 * time.Second)
	if err != nil {
		t.Fatalf("wedge-phase accept: %v", err)
	}
	junk := bytes.Repeat([]byte{0x5A}, 4<<10)
	wedgeDeadline := time.Now().Add(10 * time.Second)
	for {
		_, werr := wc.WriteTimeout(junk, 100*time.Millisecond)
		if werr == nil || ErrTimeout(werr) {
			if time.Now().After(wedgeDeadline) {
				t.Fatal("wedge-phase: persist budget never exhausted")
			}
			continue
		}
		if !ErrPeerDead(werr) {
			t.Fatalf("wedged write failed with %v, want peer-dead", werr)
		}
		break
	}
	st := cli.Stats()
	if st.PeerDeadZeroWindow != zwBefore+1 {
		t.Fatalf("PeerDeadZeroWindow = %d, want %d", st.PeerDeadZeroWindow, zwBefore+1)
	}
	if st.PersistProbes == 0 {
		t.Fatal("wedge-phase: no persist probes were sent before the verdict")
	}
	checkControl(t, "after zero-window verdict", srv, cli)
	sc.Close()
	wc.Close()

	// Phase 5: silent peer — partition the hosts mid-conversation with
	// an idle established flow on each side. No FIN, no RST, no
	// heartbeat loss (app liveness is host-local): only keepalives can
	// notice, and the reaper and the governor's idle-reclaim rung must
	// stay silent while they do.
	kaBefore := srv.Stats().PeerDeadKeepalive + cli.Stats().PeerDeadKeepalive
	reapedBase := srv.Stats().AppsReaped + cli.Stats().AppsReaped
	idleBase := srv.Stats().GovIdleReclaimed + cli.Stats().GovIdleReclaimed
	qc, err := wctx[2].DialTimeout("10.0.0.1", 8080, 2*time.Second)
	if err != nil {
		t.Fatalf("blackhole-phase dial: %v", err)
	}
	if err := transfer(qc, payload, want); err != nil {
		t.Fatalf("blackhole-phase pre-transfer: %v", err)
	}
	if err := fab.Partition("10.0.0.1", "10.0.0.2"); err != nil {
		t.Fatal(err)
	}
	kaDeadline := time.Now().Add(10 * time.Second)
	for srv.Stats().PeerDeadKeepalive+cli.Stats().PeerDeadKeepalive < kaBefore+2 {
		if time.Now().After(kaDeadline) {
			t.Fatalf("keepalives never declared the partitioned peers dead (verdicts %d, want %d)",
				srv.Stats().PeerDeadKeepalive+cli.Stats().PeerDeadKeepalive, kaBefore+2)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fab.HealAll()
	if got := srv.Stats().AppsReaped + cli.Stats().AppsReaped; got != reapedBase {
		t.Fatalf("app reaper fired during the blackhole: reaped %d, want %d", got, reapedBase)
	}
	if got := srv.Stats().GovIdleReclaimed + cli.Stats().GovIdleReclaimed; got != idleBase {
		t.Fatalf("idle-reclaim fired during the blackhole: %d, want %d", got, idleBase)
	}
	qc.Close()

	// The audit: poll until both services' pools read exactly their
	// baseline again. Timers and closing-state flow entries drain on
	// control ticks, so this settles asynchronously.
	audit := func(name string, s *Service, base map[string]int64) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			used := s.Stats().PoolUsed
			clean := true
			for pool, want := range base {
				if used[pool] != want {
					clean = false
				}
			}
			if clean {
				return
			}
			if time.Now().After(deadline) {
				for pool, want := range base {
					if got := used[pool]; got != want {
						t.Errorf("%s: pool %q leaked: %d in use, baseline %d", name, pool, got, want)
					}
				}
				t.FailNow()
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	audit("server", srv, srvBase)
	audit("client", cli, cliBase)
}
