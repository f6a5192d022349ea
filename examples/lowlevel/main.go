// Low-level API example: the IX-like interface the paper calls "TAS LL"
// (§3.3, used by the fig8/table7 "TAS LL" series). Instead of blocking
// socket calls, the server thread polls its context's event queues
// directly, reads requests out of the per-flow receive buffers without
// copies, and assembles responses straight into the transmit buffers.
// This is the interface that saves the sockets layer's ~620 cycles per
// request (Table 1).
package main

import (
	"fmt"
	"log"
	"time"

	tas "repro"
	"repro/internal/fastpath"
)

func main() {
	fab := tas.NewFabric()
	srv, err := fab.NewService("10.0.0.1", tas.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cli, err := fab.NewService("10.0.0.2", tas.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	// Server: accept via sockets, then serve via the low-level path.
	sctx := srv.NewContext()
	ln, err := sctx.Listen(7000)
	if err != nil {
		log.Fatal(err)
	}
	ready := make(chan struct{})
	go func() {
		conn, err := ln.Accept(5 * time.Second)
		if err != nil {
			log.Fatal(err)
		}
		close(ready)
		// Low-level event loop: poll raw fast-path events; on data,
		// echo by moving bytes buffer-to-buffer with zero copies.
		fp := sctx.LowLevel()
		evs := make([]fastpath.Event, 64)
		scratch := make([]byte, 64<<10)
		for {
			n := fp.PollEvents(evs)
			if n == 0 {
				// Block on the context's wakeup (the eventfd analogue),
				// re-polling once after arming to avoid lost wakeups.
				ch := fp.Sleep()
				if n = fp.PollEvents(evs); n == 0 {
					<-ch
					fp.Awake(ch)
					continue
				}
				fp.Awake(ch)
			}
			for i := 0; i < n; i++ {
				switch evs[i].Kind {
				case fastpath.EvData:
					// Zero-copy read from the rx buffer...
					k := conn.ReadZeroCopy(len(scratch), func(a, b []byte) int {
						m := copy(scratch, a)
						m += copy(scratch[m:], b)
						return m
					})
					if k == 0 {
						continue
					}
					// ...zero-copy write into the tx buffer.
					msg := scratch[:k]
					conn.WriteZeroCopy(k, func(a, b []byte) int {
						m := copy(a, msg)
						m += copy(b, msg[m:])
						return m
					})
				case fastpath.EvClosed, fastpath.EvAborted:
					return
				}
			}
		}
	}()

	// Client: ordinary sockets side.
	cctx := cli.NewContext()
	conn, err := cctx.Dial("10.0.0.1", 7000)
	if err != nil {
		log.Fatal(err)
	}
	<-ready
	const rpcs = 10000
	req := make([]byte, 64)
	resp := make([]byte, 64)
	start := time.Now()
	for i := 0; i < rpcs; i++ {
		if _, err := conn.Write(req); err != nil {
			log.Fatal(err)
		}
		got := 0
		for got < len(resp) {
			n, err := conn.Read(resp[got:])
			if err != nil {
				log.Fatal(err)
			}
			got += n
		}
	}
	el := time.Since(start)
	fmt.Printf("low-level echo: %d x 64B RPCs in %v (%.0f rpc/s, %.1fus avg RTT)\n",
		rpcs, el.Round(time.Millisecond), float64(rpcs)/el.Seconds(),
		float64(el.Microseconds())/rpcs)
}
