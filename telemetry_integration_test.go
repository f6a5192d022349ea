package tas_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	tas "repro"
	"repro/internal/telemetry"
)

func telemetryPair(t *testing.T) (*tas.Fabric, *tas.Service, *tas.Service) {
	t.Helper()
	fab := tas.NewFabric()
	cfg := tas.Config{
		Telemetry: tas.TelemetryConfig{Enabled: true, FlightRingSize: 256},
	}
	srv, err := fab.NewService("10.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := fab.NewService("10.0.0.2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return fab, srv, cli
}

// TestFlightRecorderLifecycle drives a full connect → transfer → close
// exchange with telemetry on and asserts the client flow's flight
// recorder holds the lifecycle events in order — the acceptance test
// for the flow flight recorder spanning slow path (handshake,
// teardown), fast path (segments), and libtas (app copies).
func TestFlightRecorderLifecycle(t *testing.T) {
	_, srv, cli := telemetryPair(t)

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 8192)
		for {
			n, err := c.Read(buf)
			if err != nil {
				c.Close()
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}()

	cctx := cli.NewContext()
	c, err := cctx.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 4000)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // drain FIN exchange + flow retirement

	rec := cli.Telemetry().Recorder
	keys := append(rec.LiveKeys(), rec.RetiredKeys()...)
	if len(keys) != 1 {
		t.Fatalf("client recorder has %d flows (%v), want 1", len(keys), keys)
	}
	ring := rec.Lookup(keys[0])
	if ring == nil {
		t.Fatalf("no ring for %s", keys[0])
	}
	events := ring.Events()

	want := []telemetry.FlowEventKind{
		telemetry.FESynTx,
		telemetry.FESynAckRx,
		telemetry.FEEstablished,
		telemetry.FEAppSend,
		telemetry.FESegTx,
		telemetry.FESegRx,
		telemetry.FEAppRecv,
		telemetry.FEFinTx,
	}
	wi := 0
	for _, ev := range events {
		if wi < len(want) && ev.Kind == want[wi] {
			wi++
		}
	}
	if wi != len(want) {
		var got []string
		for _, ev := range events {
			got = append(got, ev.Kind.String())
		}
		t.Fatalf("lifecycle events out of order: matched %d/%d of %v\ngot: %s",
			wi, len(want), want, strings.Join(got, " "))
	}

	// Timestamps must be monotonic non-decreasing (one shared clock).
	for i := 1; i < len(events); i++ {
		if events[i].TS < events[i-1].TS {
			t.Fatalf("event %d timestamp went backwards: %d < %d", i, events[i].TS, events[i-1].TS)
		}
	}

	// The server side saw the mirror image: syn-rx, synack-tx,
	// established, and a fin-rx from our close.
	srvRec := srv.Telemetry().Recorder
	srvKeys := append(srvRec.LiveKeys(), srvRec.RetiredKeys()...)
	if len(srvKeys) != 1 {
		t.Fatalf("server recorder has %d flows, want 1", len(srvKeys))
	}
	sring := srvRec.Lookup(srvKeys[0])
	swant := []telemetry.FlowEventKind{
		telemetry.FESynRx, telemetry.FESynAckTx, telemetry.FEEstablished, telemetry.FEFinRx,
	}
	si := 0
	for _, ev := range sring.Events() {
		if si < len(swant) && ev.Kind == swant[si] {
			si++
		}
	}
	if si != len(swant) {
		t.Fatalf("server lifecycle: matched %d/%d of %v", si, len(swant), swant)
	}
}

// TestServiceMetricsExposition checks that a telemetry-enabled service
// exposes its counters, gauges, and cycle accounts through the unified
// registry in Prometheus text format.
func TestServiceMetricsExposition(t *testing.T) {
	_, srv, cli := telemetryPair(t)

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
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
	c, err := cctx.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, make([]byte, 4)); err != nil {
			t.Fatal(err)
		}
	}

	if srv.Metrics() == nil || cli.Metrics() == nil {
		t.Fatal("Metrics() should be non-nil with telemetry enabled")
	}
	var b bytes.Buffer
	if err := cli.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"tas_fastpath_rx_packets_total",
		"tas_slowpath_established_total 1",
		"tas_flows_live 1",
		"tas_cycles_nanos_total",
		`cause="syn_shed"`,
		`tas_slowpath_flows{state="active"}`,
		`tas_slowpath_flows{state="parked"}`,
		"tas_slowpath_flow_activations_total",
		`tas_fastpath_core_park_seconds_total{core="0"}`,
		`tas_fastpath_core_poll_seconds_total{core="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The client's fast path must have attributed cycles to rx and tx.
	// Give the slow path a few control ticks (1ms period) so the cc
	// module accumulates time.
	time.Sleep(20 * time.Millisecond)
	cy := cli.Telemetry().Cycles
	if cy.Total(telemetry.ModRx).Items == 0 {
		t.Error("no cycle items attributed to rx")
	}
	if cy.Total(telemetry.ModTx).Items == 0 {
		t.Error("no cycle items attributed to tx")
	}
	if cy.Total(telemetry.ModAppCopy).Items == 0 {
		t.Error("no cycle items attributed to app-copy")
	}
	if cy.Total(telemetry.ModCC).Nanos == 0 {
		t.Error("no cycle time attributed to cc")
	}
}

// TestServiceWithoutTelemetry asserts the subsystem is genuinely
// opt-in: a default-config service exposes no telemetry handles.
func TestServiceWithoutTelemetry(t *testing.T) {
	fab := tas.NewFabric()
	srv, err := fab.NewService("10.0.0.9", tas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Telemetry() != nil || srv.Metrics() != nil {
		t.Fatal("telemetry should be nil when not enabled")
	}
}

// TestStatsConsistencyUnderChurn hammers Service.Stats() while
// connections churn concurrently, so -race can catch unsynchronized
// reads in the snapshot path (satellite: snapshot consistency).
func TestStatsConsistencyUnderChurn(t *testing.T) {
	_, srv, cli := telemetryPair(t)

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := ln.Accept(200 * time.Millisecond)
			if err != nil {
				continue // timeout: poll stop and retry
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 256)
				n, err := c.ReadTimeout(buf, 2*time.Second)
				if err != nil {
					return
				}
				c.Write(buf[:n])
			}()
		}
	}()

	var wg sync.WaitGroup
	// Churn: dial, exchange, close, repeatedly on two goroutines.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := cli.NewContext()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := ctx.Dial("10.0.0.1", 8080)
				if err != nil {
					continue
				}
				c.WriteTimeout([]byte("x"), time.Second)
				c.ReadTimeout(make([]byte, 1), time.Second)
				c.Close()
			}
		}()
	}
	// Scrape: stats snapshots and metric expositions concurrent with the
	// churn above.
	deadline := time.Now().Add(1 * time.Second)
	for time.Now().Before(deadline) {
		st := cli.Stats()
		if st.FlowsLive < 0 {
			t.Fatalf("impossible gauge: %+v", st)
		}
		var b bytes.Buffer
		if err := cli.Metrics().WriteText(&b); err != nil {
			t.Fatal(err)
		}
		srv.Stats()
	}
	close(stop)
	wg.Wait()

	// After churn settles, established counts must be plausible:
	// client-established >= server-accepted deliveries the app consumed.
	st := cli.Stats()
	if st.Established == 0 {
		t.Fatal("no connections established during churn")
	}
}

// TestFlightRecorderAbortDump asserts an aborted flow's ring is
// retired with the abort events intact — the "dumpable on abort"
// requirement.
func TestFlightRecorderAbortDump(t *testing.T) {
	// Not telemetryPair: this test closes srv itself mid-run (Close is
	// not idempotent), so only cli is cleaned up.
	fab := tas.NewFabric()
	cfg := tas.Config{Telemetry: tas.TelemetryConfig{Enabled: true, FlightRingSize: 256}}
	srv, err := fab.NewService("10.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := fab.NewService("10.0.0.2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *tas.Conn, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		accepted <- c
	}()
	cctx := cli.NewContext()
	c, err := cctx.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	<-accepted

	// Tear down the server service so the client's in-flight data is
	// never acknowledged; one write arms the retransmission machinery,
	// and the budget (MaxRetransmits backoffs) exhausts into an abort.
	srv.Close()
	if _, err := c.Write([]byte("zombie")); err != nil {
		t.Fatal(err)
	}

	// The abort retires the flow's ring; wait for it. The wait must
	// cover the whole doubling retransmit-backoff series, whose base
	// includes an 8×RTT term — under a loaded test machine the inflated
	// RTT estimate stretches the series well past its idle ~1.3s.
	rec := cli.Telemetry().Recorder
	var keys []string
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		if keys = rec.RetiredKeys(); len(keys) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(keys) != 1 {
		t.Fatalf("retired rings %v, want exactly 1 (abort did not retire the flow)", keys)
	}
	ring := rec.Lookup(keys[0])
	var kinds []string
	for _, ev := range ring.Events() {
		kinds = append(kinds, ev.Kind.String())
	}
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"established", "rto-backoff", "aborted"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("abort dump missing %q: %s", want, joined)
		}
	}
	// JSON dump of the whole recorder must include the flow key.
	var b bytes.Buffer
	if err := rec.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), fmt.Sprintf("%q", keys[0])) {
		t.Fatalf("JSON dump missing flow %s", keys[0])
	}
}

// TestPipelinedConnTelemetryOn uses one connection the way an open-loop
// client does — a sender goroutine and a receiver goroutine at once —
// with telemetry on, so both directions run the sampled app-copy
// accounting concurrently. Meaningful under -race: the two directions
// used to share one sampling counter.
func TestPipelinedConnTelemetryOn(t *testing.T) {
	_, srv, cli := telemetryPair(t)
	ln, err := srv.NewContext().Listen(8300)
	if err != nil {
		t.Fatal(err)
	}
	go func() { // echo
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
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
	conn, err := cli.NewContext().Dial("10.0.0.1", 8300)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const msgs, size = 2000, 64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // sender
		defer wg.Done()
		req := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if _, err := conn.WriteTimeout(req, 5*time.Second); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()
	resp := make([]byte, 4096)
	for got := 0; got < msgs*size; {
		n, err := conn.ReadTimeout(resp, 5*time.Second)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", got, err)
		}
		got += n
	}
	wg.Wait()
}
