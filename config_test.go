package tas

import (
	"errors"
	"testing"
	"time"

	"repro/internal/config"
)

func TestCongestionControlVariants(t *testing.T) {
	for _, cc := range []string{"dctcp", "timely", "dctcp-window", "none"} {
		cc := cc
		t.Run(cc, func(t *testing.T) {
			_, srv, cli := newPair(t, Config{CongestionControl: cc})
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
				buf := make([]byte, 256<<10)
				got := 0
				for got < 256<<10 {
					n, err := c.Read(buf)
					if err != nil {
						done <- err
						return
					}
					got += n
				}
				done <- nil
			}()
			cctx := cli.NewContext()
			c, err := cctx.Dial("10.0.0.1", 8080)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(make([]byte, 256<<10)); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("transfer did not complete")
			}
		})
	}
}

// TestNewServiceRejectsBadConfig: the facade refuses, before building
// anything, every configuration config.Validate rejects — the same checks
// a scenario spec's topology gets at parse time (TestParseSpecRejections);
// the governor's limits have their own table (TestQuotaConfigValidation).
func TestNewServiceRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		unknown bool // rejected as an unknown name, not a range
	}{
		{"negative core count", Config{MaxCores: -1}, false},
		{"negative handshake rto", Config{HandshakeRTO: -time.Millisecond}, false},
		{"negative retransmit budget", Config{MaxRetransmits: -1}, false},
		{"negative listen backlog", Config{ListenBacklog: -1}, false},
		{"negative keepalive probes", Config{KeepaliveProbes: -3}, false},
		{"negative time wait", Config{TimeWaitDuration: -time.Second}, false},
		{"buffer size not a power of two", Config{RxBufSize: 100000}, false},
		{"unknown congestion control", Config{CongestionControl: "bogus"}, true},
		{"unknown syn-cookie mode", Config{SynCookies: "sometimes"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewFabric().NewService("10.0.9.9", tc.cfg)
			if err == nil {
				svc.Close()
				t.Fatal("config accepted")
			}
			if got := errors.Is(err, config.ErrUnknownName); got != tc.unknown {
				t.Fatalf("err %v: unknown-name class %v, want %v", err, got, tc.unknown)
			}
		})
	}
}

// TestRejectedServiceLeavesNoHost: a refused NewService attaches nothing,
// so a dial to its address finds no route instead of a host whose engine
// swallows the SYNs and never answers.
func TestRejectedServiceLeavesNoHost(t *testing.T) {
	fab := NewFabric()
	if _, err := fab.NewService("10.0.0.1", Config{CongestionControl: "bogus"}); err == nil {
		t.Fatal("unknown congestion control accepted")
	}
	cli, err := fab.NewService("10.0.0.2", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := cli.NewContext()
	defer ctx.Kill()
	if _, err := ctx.DialTimeout("10.0.0.1", 80, 400*time.Millisecond); err == nil {
		t.Fatal("dial to a rejected service succeeded")
	}
	if st := fab.Stats(); st.Delivered != 0 {
		t.Fatalf("fabric delivered %d packets to a rejected service's address", st.Delivered)
	}
}

func TestConnStatsFacade(t *testing.T) {
	_, srv, cli := newPair(t, Config{})
	sctx := srv.NewContext()
	ln, _ := sctx.Listen(8083)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err == nil {
			buf := make([]byte, 1024)
			c.Read(buf)
		}
	}()
	cctx := cli.NewContext()
	c, err := cctx.Dial("10.0.0.1", 8083)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.RxBufSize == 0 || st.TxBufSize == 0 {
		t.Fatalf("stats missing buffer sizes: %+v", st)
	}
	c.ResizeBuffers(st.RxBufSize*2, st.TxBufSize*2)
	if got := c.Stats(); got.RxBufSize != st.RxBufSize*2 {
		t.Fatalf("resize via facade failed: %+v", got)
	}
}
