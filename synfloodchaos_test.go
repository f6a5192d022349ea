package tas

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestChaosSynFloodRestartSurvival is the adversarial-traffic chaos
// acceptance test, designed to run under the race detector: a 50K pps
// spoofed SYN flood hammers the workload port while legitimate clients
// churn SHA-256-verified transfers through it, and the server's slow
// path is warm-restarted mid-flood. The SYN-cookie jar and its key
// epochs are engine-owned, so handshakes completed from cookies issued
// before the restart still validate after it. Every transfer must
// either complete intact or fail closed with a timeout — never hang
// past its deadline, never deliver corrupt bytes.
func TestChaosSynFloodRestartSurvival(t *testing.T) {
	cfg := Config{
		SynCookies:       "always",
		ListenBacklog:    16,
		HandshakeRTO:     20 * time.Millisecond,
		HandshakeRetries: 4,
	}
	fab, srv, cli := newPair(t, cfg)

	const transferBytes = 32 << 10

	sctx := srv.NewContext()
	ln, err := sctx.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	// Echo server: hash whatever arrives and send the digest back.
	acceptStop := make(chan struct{})
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		var wg sync.WaitGroup
		defer wg.Wait()
		for {
			c, err := ln.Accept(200 * time.Millisecond)
			if err != nil {
				select {
				case <-acceptStop:
					return
				default:
					continue
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				h := sha256.New()
				buf := make([]byte, 4096)
				var got int
				for got < transferBytes {
					n, err := c.Read(buf)
					if n > 0 {
						h.Write(buf[:n])
						got += n
					}
					if err != nil {
						return
					}
				}
				c.Write(h.Sum(nil))
			}()
		}
	}()

	// The blind attacker: spoofed sources, 100 SYNs every 2ms = 50K pps
	// against the workload port for the whole test.
	atk, err := fab.NewAttacker("10.99.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer atk.Close()
	floodStop := make(chan struct{})
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		rng := rand.New(rand.NewSource(1009))
		tk := time.NewTicker(2 * time.Millisecond)
		defer tk.Stop()
		for {
			if _, err := atk.SynBurst("10.0.0.1", 8080, 100, rng); err != nil {
				return
			}
			select {
			case <-floodStop:
				return
			case <-tk.C:
			}
		}
	}()

	// Legitimate workers churn connections through the flooded port.
	// Under -race everything is ~20× slower, so outcomes are scored, not
	// assumed: each attempt must finish intact or fail closed in bounded
	// time. What must NOT happen is a hang or a digest mismatch.
	const workers = 4
	const perWorker = 12
	var (
		mu        sync.Mutex
		ok        int
		failed    int
		postOK    int
		firstErr  error
		restarted bool
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			payload := make([]byte, transferBytes)
			rng.Read(payload)
			want := sha256.Sum256(payload)
			ctx := cli.NewContext()
			for i := 0; i < perWorker; i++ {
				err := func() error {
					c, err := ctx.DialTimeout("10.0.0.1", 8080, 3*time.Second)
					if err != nil {
						return err
					}
					defer c.Close()
					if _, err := c.Write(payload); err != nil {
						return err
					}
					digest := make([]byte, sha256.Size)
					if _, err := io.ReadFull(c, digest); err != nil {
						return err
					}
					if !bytes.Equal(digest, want[:]) {
						t.Error("digest mismatch: corrupt transfer under flood")
					}
					return nil
				}()
				mu.Lock()
				if err != nil {
					// Failing closed (timeout, reset by the restart, EOF
					// from a torn-down peer) is acceptable under attack;
					// hanging or corrupting is not. Hangs are caught by
					// the test deadline, corruption by the digest check.
					if firstErr == nil {
						firstErr = err
					}
					failed++
				} else {
					ok++
					if restarted {
						postOK++
					}
				}
				mu.Unlock()
			}
		}(w)
	}

	// Warm-restart the server's slow path mid-flood, triggered on
	// workload progress (a third of the transfers done) rather than a
	// wall-clock sleep, so the restart genuinely lands mid-workload on
	// fast and slow (race-detector) runs alike. The engine-owned cookie
	// jar (and challenge limiter) survive the loop teardown.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := ok + failed
		mu.Unlock()
		if n >= workers*perWorker/3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("workload never reached the restart trigger point")
		}
		time.Sleep(time.Millisecond)
	}
	preRestart := srv.Stats().SynCookiesValidated
	srv.Restart()
	mu.Lock()
	restarted = true
	mu.Unlock()

	wg.Wait()
	close(floodStop)
	<-floodDone
	close(acceptStop)
	ln.Close()
	<-acceptDone

	st := srv.Stats()
	t.Logf("transfers: %d ok (%d post-restart), %d failed closed (first: %v); cookies sent=%d validated=%d (pre-restart %d) rejected=%d",
		ok, postOK, failed, firstErr, st.SynCookiesSent, st.SynCookiesValidated, preRestart, st.SynCookiesRejected)

	if ok == 0 {
		t.Fatal("no legitimate transfer completed under the flood")
	}
	if postOK == 0 {
		t.Fatal("no transfer completed after the mid-flood warm restart")
	}
	if st.SynCookiesValidated == 0 {
		t.Fatal("no handshake was reconstructed from a SYN cookie")
	}
	if st.SynCookiesValidated < preRestart {
		t.Fatalf("SynCookiesValidated went backwards across restart: %d -> %d", preRestart, st.SynCookiesValidated)
	}
	if srv.Restarts() < 1 {
		t.Fatalf("Restarts = %d, want >= 1", srv.Restarts())
	}
}
