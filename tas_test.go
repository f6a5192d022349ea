package tas

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newPair(t *testing.T, cfg Config) (*Fabric, *Service, *Service) {
	t.Helper()
	fab := NewFabric()
	srv, err := fab.NewService("10.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := fab.NewService("10.0.0.2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cli.Close() })
	return fab, srv, cli
}

// checkControl asserts the slow path's control-set invariant (every
// flow active, parked or queued for activation; no parked flow holding
// work; every close on its timer) on each service. Chaos tests call it at their assertion points.
func checkControl(t *testing.T, where string, svcs ...*Service) {
	t.Helper()
	for i, s := range svcs {
		if err := s.Slow().CheckControlInvariant(); err != nil {
			t.Fatalf("%s: service %d: %v", where, i, err)
		}
	}
}

func TestEchoRoundTrip(t *testing.T) {
	_, srv, cli := newPair(t, Config{})
	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 128)
		n, err := c.Read(buf)
		if err != nil {
			done <- err
			return
		}
		if _, err := c.Write(buf[:n]); err != nil {
			done <- err
			return
		}
		done <- nil
	}()

	cctx := cli.NewContext()
	c, err := cctx.Dial("10.0.0.1", 8080)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello TAS fast path")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("echo mismatch: %q", buf[:n])
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDialRefusedWithoutListener(t *testing.T) {
	_, _, cli := newPair(t, Config{})
	ctx := cli.NewContext()
	start := time.Now()
	_, err := ctx.Dial("10.0.0.1", 12345)
	if err == nil {
		t.Fatal("dial to closed port should fail")
	}
	if time.Since(start) > 6*time.Second {
		t.Fatal("refusal should not take the full timeout")
	}
}

func TestBulkTransferIntegrity(t *testing.T) {
	_, srv, cli := newPair(t, Config{})
	sctx := srv.NewContext()
	ln, err := sctx.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	const total = 8 << 20 // 8 MiB through 256 KiB buffers
	// Deterministic pseudo-random payload.
	payload := make([]byte, total)
	x := uint32(123456789)
	for i := range payload {
		x = x*1664525 + 1013904223
		payload[i] = byte(x >> 24)
	}
	var got bytes.Buffer
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 64<<10)
		for got.Len() < total {
			n, err := c.Read(buf)
			if err != nil {
				done <- fmt.Errorf("read after %d bytes: %w", got.Len(), err)
				return
			}
			got.Write(buf[:n])
		}
		done <- nil
	}()

	cctx := cli.NewContext()
	c, err := cctx.Dial("10.0.0.1", 9000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("bulk payload corrupted in transit")
	}
}

func TestManyConnections(t *testing.T) {
	_, srv, cli := newPair(t, Config{})
	sctx := srv.NewContext()
	ln, err := sctx.Listen(9100)
	if err != nil {
		t.Fatal(err)
	}
	const conns = 50
	go func() {
		for i := 0; i < conns; i++ {
			c, err := ln.Accept(10 * time.Second)
			if err != nil {
				return
			}
			go func() {
				// One echo per connection on its own goroutine is not
				// context-safe; serially echo instead.
				_ = c
			}()
			buf := make([]byte, 64)
			n, err := c.Read(buf)
			if err == nil {
				c.Write(buf[:n])
			}
		}
	}()

	cctx := cli.NewContext()
	for i := 0; i < conns; i++ {
		c, err := cctx.Dial("10.0.0.1", 9100)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		msg := []byte(fmt.Sprintf("conn-%03d", i))
		if _, err := c.Write(msg); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if err != nil || !bytes.Equal(buf[:n], msg) {
			t.Fatalf("echo %d: %q err=%v", i, buf[:n], err)
		}
		c.Close()
	}
}

func TestGracefulClose(t *testing.T) {
	_, srv, cli := newPair(t, Config{})
	sctx := srv.NewContext()
	ln, _ := sctx.Listen(9200)
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			done <- err
			return
		}
		// Read until EOF.
		buf := make([]byte, 1024)
		var total int
		for {
			n, err := c.Read(buf)
			total += n
			if err == io.EOF {
				if total != 1000 {
					done <- fmt.Errorf("got %d bytes before EOF", total)
					return
				}
				done <- nil
				return
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	cctx := cli.NewContext()
	c, err := cctx.Dial("10.0.0.1", 9200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("EOF never observed")
	}
}

func TestLossRecoveryLive(t *testing.T) {
	fab, srv, cli := newPair(t, Config{})
	sctx := srv.NewContext()
	ln, _ := sctx.Listen(9300)
	const total = 1 << 20
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 32<<10)
		n := 0
		for n < total {
			k, err := c.Read(buf)
			if err != nil {
				done <- err
				return
			}
			n += k
		}
		done <- nil
	}()
	cctx := cli.NewContext()
	c, err := cctx.Dial("10.0.0.1", 9300)
	if err != nil {
		t.Fatal(err)
	}
	fab.SetLoss(0.02) // 2% loss after handshake
	defer fab.SetLoss(0)
	if _, err := c.Write(make([]byte, total)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("transfer with loss did not complete")
	}
}

func TestConcurrentContexts(t *testing.T) {
	_, srv, cli := newPair(t, Config{MaxCores: 2})
	sctx := srv.NewContext()
	ln, _ := sctx.Listen(9400)
	go func() {
		for {
			c, err := ln.Accept(5 * time.Second)
			if err != nil {
				return
			}
			buf := make([]byte, 256)
			n, err := c.Read(buf)
			if err == nil {
				c.Write(buf[:n])
			}
		}
	}()
	// Several client contexts (threads) in parallel, each with its own
	// connection — contexts are single-goroutine, services are not.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := cli.NewContext()
			c, err := ctx.Dial("10.0.0.1", 9400)
			if err != nil {
				errs <- err
				return
			}
			msg := []byte(fmt.Sprintf("ctx-%d", g))
			if _, err := c.Write(msg); err != nil {
				errs <- err
				return
			}
			buf := make([]byte, 256)
			n, err := c.Read(buf)
			if err != nil || !bytes.Equal(buf[:n], msg) {
				errs <- fmt.Errorf("ctx %d echo mismatch: %q %v", g, buf[:n], err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestParseIP(t *testing.T) {
	ip, err := ParseIP("10.1.2.3")
	if err != nil {
		t.Fatal(err)
	}
	if ip.String() != "10.1.2.3" {
		t.Fatalf("round trip: %v", ip)
	}
	for _, bad := range []string{"", "10.0.0", "10.0.0.256", "a.b.c.d",
		"10.0.0.1.5", "10.0.0.1x", "+10.0.0.1", "010.0.0.1", "::ffff:10.0.0.1"} {
		if _, err := ParseIP(bad); err == nil {
			t.Errorf("ParseIP(%q) should fail", bad)
		}
	}
}

func TestRandomizedChunksIntegrity(t *testing.T) {
	// Property-style live test: random chunk sizes, random small loss,
	// payload must arrive byte-identical. Exercises segmentation,
	// flow-control windows, window updates, OOO handling, and go-back-N
	// together.
	for _, seed := range []int64{3, 7, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fab, srv, cli := newPair(t, Config{})
			sctx := srv.NewContext()
			port := uint16(9500 + seed)
			ln, err := sctx.Listen(port)
			if err != nil {
				t.Fatal(err)
			}
			total := 200<<10 + rng.Intn(300<<10)
			payload := make([]byte, total)
			rng.Read(payload)

			var got bytes.Buffer
			done := make(chan error, 1)
			go func() {
				c, err := ln.Accept(5 * time.Second)
				if err != nil {
					done <- err
					return
				}
				buf := make([]byte, 48<<10)
				for got.Len() < total {
					n, err := c.Read(buf)
					if err != nil {
						done <- err
						return
					}
					got.Write(buf[:n])
				}
				done <- nil
			}()
			cctx := cli.NewContext()
			c, err := cctx.Dial("10.0.0.1", port)
			if err != nil {
				t.Fatal(err)
			}
			fab.SetLoss(float64(rng.Intn(3)) * 0.005) // 0, 0.5% or 1%
			sent := 0
			for sent < total {
				n := 1 + rng.Intn(20<<10)
				if sent+n > total {
					n = total - sent
				}
				if _, err := c.Write(payload[sent : sent+n]); err != nil {
					t.Fatal(err)
				}
				sent += n
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(60 * time.Second):
				t.Fatalf("stalled at %d/%d bytes", got.Len(), total)
			}
			if !bytes.Equal(got.Bytes(), payload) {
				t.Fatal("payload corrupted")
			}
		})
	}
}

// TestCoreScalingFollowsWork: the scaling monitor reads per-core
// utilization as a share of wall time. Cores that park between packets
// log next to no idle loops, so a loop-count ratio reads them as
// saturated and adds cores to an engine that is mostly asleep. Two
// closed-loop echo connections can occupy two cores at the most; four
// are on offer.
func TestCoreScalingFollowsWork(t *testing.T) {
	_, srv, cli := newPair(t, Config{MaxCores: 4})
	ln, err := srv.NewContext().Listen(8090)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		conn, err := cli.NewContext().Dial("10.0.0.1", 8090)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := ln.Accept(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() { // echo server
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				n, err := peer.Read(buf)
				if err != nil {
					return
				}
				if _, err := peer.Write(buf[:n]); err != nil {
					return
				}
			}
		}()
		go func() { // closed-loop client
			defer wg.Done()
			defer conn.Close()
			buf := make([]byte, 64)
			for !stop.Load() {
				if _, err := conn.Write(buf); err != nil {
					t.Error(err)
					return
				}
				if _, err := io.ReadFull(conn, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	most := 0
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		most = max(most, srv.Engine().ActiveCores(), cli.Engine().ActiveCores())
	}
	stop.Store(true)
	wg.Wait()
	if most > 2 {
		t.Fatalf("scaled to %d cores under two closed-loop connections", most)
	}
	// Idle, the engine sheds every core but one (one step per 10ms
	// scale interval).
	deadline := time.Now().Add(2 * time.Second)
	for srv.Engine().ActiveCores() != 1 || cli.Engine().ActiveCores() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle engines hold %d and %d active cores, want 1 and 1",
				srv.Engine().ActiveCores(), cli.Engine().ActiveCores())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
