package tas

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestQuotaConfigValidation rejects inconsistent governor settings at
// NewService time: a per-app quota above its global pool, inverted or
// out-of-range hysteresis watermarks, negative capacities. Valid
// combinations construct.
func TestQuotaConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; "" = must succeed
	}{
		{"zero-config", Config{}, ""},
		{"capped-pools", Config{Limits: Limits{PayloadBytes: 1 << 20, Flows: 100, HalfOpen: 50}}, ""},
		{"quotas-within-pools", Config{Limits: Limits{Flows: 100, AppFlows: 10,
			PayloadBytes: 1 << 20, AppPayloadBytes: 1 << 18}}, ""},
		{"quota-without-global", Config{Limits: Limits{AppFlows: 10, AppPayloadBytes: 1 << 18}}, ""},
		{"custom-watermarks", Config{Limits: Limits{EngagePct: 80, ReleasePct: 60}}, ""},
		{"app-flows-over-pool", Config{Limits: Limits{Flows: 10, AppFlows: 11}},
			"per-app flows quota 11 exceeds global pool 10"},
		{"app-payload-over-pool", Config{Limits: Limits{PayloadBytes: 1 << 10, AppPayloadBytes: 1 << 11}},
			"per-app payload bytes quota"},
		{"inverted-hysteresis", Config{Limits: Limits{EngagePct: 60, ReleasePct: 70}},
			"inverted hysteresis"},
		{"equal-watermarks", Config{Limits: Limits{EngagePct: 60, ReleasePct: 60}},
			"inverted hysteresis"},
		{"engage-over-100", Config{Limits: Limits{EngagePct: 140, ReleasePct: 55}},
			"outside (0,100]"},
		{"release-negative", Config{Limits: Limits{EngagePct: 70, ReleasePct: -5}},
			"outside (0,100]"},
		{"negative-pool", Config{Limits: Limits{Flows: -4}}, "negative"},
		{"negative-payload", Config{Limits: Limits{PayloadBytes: -1}}, "negative"},
	}
	for i, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fab := NewFabric()
			srv, err := fab.NewService(fmt.Sprintf("10.3.0.%d", i+1), tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				srv.Close()
				return
			}
			if err == nil {
				srv.Close()
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestDialBackpressureTyped exercises the active-side admission path:
// when the dialing service's own flow pool is exhausted, Dial fails
// fast with the typed backpressure error (retryable overload, not a
// fault), and succeeds again once a flow closes and drains.
func TestDialBackpressureTyped(t *testing.T) {
	fab := NewFabric()
	srv, err := fab.NewService("10.0.0.1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := fab.NewService("10.0.0.2", Config{Limits: Limits{Flows: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cli.Close() })

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
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
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}()
		}
	}()

	cctx := cli.NewContext()
	c1, err := cctx.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cctx.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cctx.DialTimeout("10.0.0.1", 8080, 2*time.Second)
	if err == nil {
		t.Fatal("third dial should exceed the 2-flow budget")
	}
	if !ErrBackpressure(err) {
		t.Fatalf("want typed backpressure, got %v", err)
	}
	if rej := cli.Stats().PoolRejects["flows"]; rej == 0 {
		t.Fatal("flow-pool rejection not counted")
	}

	// Release one slot; the flow-table entry drains after the close
	// handshake, so retry until admission succeeds.
	c1.Close()
	var c3 *Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err = cctx.DialTimeout("10.0.0.1", 8080, time.Second)
		if err == nil {
			break
		}
		if !ErrBackpressure(err) {
			t.Fatalf("retry dial failed with non-backpressure error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("flow slot never drained after close")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c3.Close()
	c2.Close()
}

// TestAppQuotaBackpressure exercises the per-app quota: one context
// capped at a single flow gets a typed backpressure denial on its
// second concurrent dial, while a sibling context on the same service
// is unaffected.
func TestAppQuotaBackpressure(t *testing.T) {
	fab := NewFabric()
	srv, err := fab.NewService("10.0.0.1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := fab.NewService("10.0.0.2", Config{Limits: Limits{AppFlows: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cli.Close() })

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
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
			defer c.Close()
		}
	}()

	cctx := cli.NewContext()
	c1, err := cctx.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := cctx.DialTimeout("10.0.0.1", 8080, 2*time.Second); !ErrBackpressure(err) {
		t.Fatalf("second dial on quota-capped context: want backpressure, got %v", err)
	}
	if q := cli.Stats().QuotaRejects; q == 0 {
		t.Fatal("quota rejection not counted")
	}

	// A different context has its own quota.
	other := cli.NewContext()
	c2, err := other.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatalf("sibling context blocked by another app's quota: %v", err)
	}
	c2.Close()
}

// TestAppQuotaSurvivesRebind: an accepted flow is charged to the
// listener's context, and Rebind moves its events to another context,
// not its charge — closing it must give the listener's quota back. Eight
// connections through a listener capped at four flows, each accepted,
// rebound and closed before the next, all succeed.
func TestAppQuotaSurvivesRebind(t *testing.T) {
	fab := NewFabric()
	srv, err := fab.NewService("10.0.0.1", Config{Limits: Limits{AppFlows: 4}})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := fab.NewService("10.0.0.2", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cli.Close() })

	ln, err := srv.NewContext().Listen(8090)
	if err != nil {
		t.Fatal(err)
	}
	cctx := cli.NewContext()
	for i := 0; i < 8; i++ {
		c, err := cctx.DialTimeout("10.0.0.1", 8090, 2*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		s, err := ln.Accept(2 * time.Second)
		if err != nil {
			t.Fatalf("accept %d (listener quota 4): %v", i, err)
		}
		s.Rebind(srv.NewContext())
		s.Close()
		c.Close()
		deadline := time.Now().Add(5 * time.Second)
		for srv.Stats().FlowsLive > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("connection %d never torn down", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if q := srv.Stats().QuotaRejects; q != 0 {
		t.Fatalf("%d quota denials with at most one flow open", q)
	}
}

// TestSendBackpressureWhenClamped drives the ladder to the TX-clamp
// rung with a nearly-full payload budget and verifies a bounded write
// against a non-reading peer surfaces backpressure (the clamp binding),
// not a generic timeout.
func TestSendBackpressureWhenClamped(t *testing.T) {
	fab := NewFabric()
	srv, err := fab.NewService("10.0.0.1", Config{RxBufSize: 32 << 10, TxBufSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2 flows x 64 KiB of buffers = 128 KiB against a 144 KiB budget:
	// 88.9% occupancy sits in the clamp-tx band (>=85%) but under
	// reclaim's 92.5%.
	cli, err := fab.NewService("10.0.0.2", Config{
		RxBufSize: 32 << 10, TxBufSize: 32 << 10,
		Limits: Limits{PayloadBytes: 144 << 10},
		// Flows stay deliberately idle while the ladder climbs; a long
		// reclaim age keeps rung 4 from ever seeing them as victims
		// even if occupancy were to brush its band.
		IdleReclaimAge: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cli.Close() })

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var accepted []*Conn
	var amu sync.Mutex
	go func() {
		for i := 0; i < 2; i++ {
			c, err := ln.Accept(5 * time.Second)
			if err != nil {
				return
			}
			amu.Lock()
			accepted = append(accepted, c)
			amu.Unlock()
		}
		<-release
		// Drain everything so the writer can finish.
		amu.Lock()
		conns := append([]*Conn(nil), accepted...)
		amu.Unlock()
		for _, c := range conns {
			go func(c *Conn) {
				buf := make([]byte, 16<<10)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	cctx := cli.NewContext()
	c1, err := cctx.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := cctx.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Let the ladder climb one rung per control tick to clamp-tx.
	deadline := time.Now().Add(3 * time.Second)
	for cli.Stats().PressureLevel < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("ladder never reached clamp-tx: level %d, pressure %.2f",
				cli.Stats().PressureLevel, cli.Stats().Pressure)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server is not reading, so its 32 KiB receive buffer absorbs
	// the head of the write; after that the clamped grant (a quarter
	// buffer = 8 KiB) caps TX occupancy at 40 KiB total in flight. A
	// 56 KiB write — which the unclamped 32 KiB TX buffer would have
	// absorbed whole — must stall on the grant and report backpressure,
	// not a generic timeout.
	n, err := c1.WriteTimeout(make([]byte, 56<<10), 300*time.Millisecond)
	if err == nil {
		t.Fatalf("write of 56 KiB against an 8 KiB grant completed (%d bytes)", n)
	}
	if !ErrBackpressure(err) {
		t.Fatalf("want typed backpressure from the clamp, got %v", err)
	}
	if n == 0 {
		t.Fatal("clamped write should still have moved the granted bytes")
	}
	if sheds := cli.Stats().PressureSheds["clamp_tx"]; sheds == 0 {
		t.Fatal("clamp-tx shed not counted")
	}

	close(release)
}

// TestMaxTimeWaitRecyclesOldest: with the TIME_WAIT pool capped, the
// active closer's quarantine never holds more tuples than the cap — the
// oldest entry is recycled for the newest — while every close still
// completes.
func TestMaxTimeWaitRecyclesOldest(t *testing.T) {
	const limit, closes = 2, 6
	_, srv, cli := newPair(t, Config{Limits: Limits{TimeWait: limit}, TimeWaitDuration: time.Minute})
	ln, err := srv.NewContext().Listen(9300)
	if err != nil {
		t.Fatal(err)
	}
	go func() { // passive closer: read to EOF, close back
		for {
			c, err := ln.Accept(5 * time.Second)
			if err != nil {
				return
			}
			buf := make([]byte, 8)
			for {
				if _, err := c.Read(buf); err != nil {
					break
				}
			}
			c.Close()
		}
	}()
	cctx := cli.NewContext()
	for i := 0; i < closes; i++ {
		c, err := cctx.Dial("10.0.0.1", 9300)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		c.Close()
		deadline := time.Now().Add(5 * time.Second)
		for cli.Stats().FlowsLive != 0 { // closed both ways and quarantined
			if time.Now().After(deadline) {
				t.Fatalf("close %d never finished: %+v", i, cli.Stats())
			}
			time.Sleep(time.Millisecond)
		}
		st := cli.Stats()
		if st.PoolCap["time_wait"] != limit || st.FlowsTimeWait > limit || st.PoolUsed["time_wait"] != int64(st.FlowsTimeWait) {
			t.Fatalf("after close %d: cap %d, %d tuples quarantined, %d charged; want cap %d and at most that many",
				i, st.PoolCap["time_wait"], st.FlowsTimeWait, st.PoolUsed["time_wait"], limit)
		}
	}
	if got := cli.Stats().FlowsTimeWait; got != limit {
		t.Fatalf("%d tuples quarantined after %d closes, want the cap %d", got, closes, limit)
	}
}

// TestResizeAfterResetChargesNothing: the peer's RST removes the flow
// and returns its payload charge, so a later ResizeBuffers on the dead
// connection must charge nothing — no teardown would ever release it.
func TestResizeAfterResetChargesNothing(t *testing.T) {
	_, srv, cli := newPair(t, Config{})
	ln, err := srv.NewContext().Listen(8095)
	if err != nil {
		t.Fatal(err)
	}
	cctx := cli.NewContext()
	if _, err := cctx.Dial("10.0.0.1", 8095); err != nil {
		t.Fatal(err)
	}
	s, err := ln.Accept(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cctx.Kill() // the client exits: its flow is reset toward the server
	deadline := time.Now().Add(5 * time.Second)
	for !s.Aborted() || srv.Stats().FlowsLive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server flow never torn down by the peer's RST")
		}
		time.Sleep(time.Millisecond)
	}
	if used := srv.Stats().PoolUsed["payload_bytes"]; used != 0 {
		t.Fatalf("%d payload bytes charged after the flow was removed", used)
	}
	live := srv.Stats().LivePayloadBytes
	s.ResizeBuffers(4<<20, 4<<20)
	if used := srv.Stats().PoolUsed["payload_bytes"]; used != 0 {
		t.Fatalf("resizing a reset connection charged %d payload bytes", used)
	}
	if got := srv.Stats().LivePayloadBytes; got != live {
		t.Fatalf("resizing a reset connection reserved %d payload bytes", got-live)
	}
}
