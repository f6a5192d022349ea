package tas

import (
	"runtime"
	"testing"
	"time"
)

// TestIdleConnectionCost: a connection that never carries a byte costs
// its flow state and table entries, not payload memory. Establishing
// 1024 idle pairs in lock-step at 16 KiB buffers must allocate under
// 8 KiB a pair, where the four buffers' storage alone would be 64 KiB.
func TestIdleConnectionCost(t *testing.T) {
	const pairs = 1024
	_, srv, cli := newPair(t, Config{RxBufSize: 16 << 10, TxBufSize: 16 << 10})
	ln, err := srv.NewContext().Listen(7100)
	if err != nil {
		t.Fatal(err)
	}
	cctx := cli.NewContext()
	conns := make([]*Conn, 0, 2*(pairs+1))
	connect := func() {
		c, err := cctx.DialTimeout("10.0.0.1", 7100, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ln.Accept(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c, s)
	}
	connect() // first-use costs (registries, rings) are not per pair
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		connect()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / pairs; per >= 8<<10 {
		t.Fatalf("an idle connection pair allocated %d bytes, want < 8 KiB", per)
	} else {
		t.Logf("%d bytes allocated per idle connection pair", per)
	}
	if got := srv.Stats().FlowsLive; got != pairs+1 {
		t.Fatalf("server holds %d flows, want %d", got, pairs+1)
	}
	runtime.KeepAlive(conns)
}
