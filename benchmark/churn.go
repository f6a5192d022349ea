package main

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// churnProbe is the connect / 64 B RPC / close cycle that is not a
// workload yet: at the commit that added this benchmark a handful of
// cycles per run stall for their full deadline on a lossless fabric
// (client established and wrote, server never returns the flow from
// Accept), so conn/s is noise. It is the reproducer for that stall and
// the entry test for promoting conn_churn to a workload. Ungated: its
// numbers are not in BENCHMARK.json and it exits 0 whatever they are.
// drainWait is how long a server waits for one more flow in its
// backlog once every client has stopped.
const drainWait = 100 * time.Millisecond

func churnProbe(stdout, stderr io.Writer, seed int64, seconds float64) int {
	newStamp(seed).print(stdout)
	tb, err := build(workload{cfg: rpcBufs}, false) // the RPC workloads' services, no connection yet
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer tb.close()

	const goroutines = 2
	var cycles, dialFail, readFail, eofFail, acceptIdle atomic.Uint64
	var stop atomic.Bool
	var clients, servers sync.WaitGroup
	clientsDone := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		port := uint16(7200 + i)
		sctx, cctx := tb.context(tb.srv), tb.context(tb.cli)
		ln, err := sctx.Listen(port)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		servers.Add(1)
		go func() { // server: accept, echo one request, wait for the client's close
			defer servers.Done()
			buf := make([]byte, rpcSize)
			for {
				select {
				case <-clientsDone:
					// No cycle is in flight any more. What the backlog still
					// holds is returned and closed, so that a slot counted as
					// leaked below is one Accept never gave back.
					for {
						c, err := ln.Accept(drainWait)
						if err != nil {
							break
						}
						c.Close()
					}
					ln.Close()
					return
				default:
				}
				c, err := ln.Accept(opDeadline)
				if err != nil {
					acceptIdle.Add(1)
					continue
				}
				if n, err := c.ReadTimeout(buf, opDeadline); err == nil {
					if _, err := c.WriteTimeout(buf[:n], opDeadline); err == nil {
						if _, err := c.ReadTimeout(buf, opDeadline); err != io.EOF {
							eofFail.Add(1)
						}
					}
				}
				c.Close()
			}
		}()
		clients.Add(1)
		go func(conn int) { // client: dial, one RPC, close
			defer clients.Done()
			req, resp := make([]byte, rpcSize), make([]byte, rpcSize)
			for seq := uint64(0); !stop.Load(); seq++ {
				fillRequest(req, uint64(seed), seq<<4|uint64(conn))
				c, err := cctx.DialTimeout(serverAddr, port, opDeadline)
				if err != nil {
					dialFail.Add(1)
					continue
				}
				_, err = c.WriteTimeout(req, opDeadline)
				if err == nil {
					err = readResponse(c, resp, 0, time.Now().Add(opDeadline))
				}
				if err != nil || !bytes.Equal(req, resp) {
					readFail.Add(1)
				} else {
					cycles.Add(1)
				}
				c.Close()
			}
		}(i)
	}
	t0 := time.Now()
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	stop.Store(true)
	// Clients first: the servers keep serving until the last cycle a
	// client began has ended, then drain and close their listeners.
	clients.Wait()
	elapsed := time.Since(t0).Seconds()
	close(clientsDone)
	servers.Wait()

	attempted := cycles.Load() + dialFail.Load() + readFail.Load()
	fmt.Fprintf(stdout, "# probe churn: %d goroutines x (dial, 64 B echo, close), one context each, %v deadlines, %.1f s; ungated\n",
		goroutines, opDeadline, elapsed)
	fmt.Fprintf(stdout, "%-30s %14s  1/s\n", "churn.conn_per_s", fmtVal(float64(cycles.Load())/elapsed))
	fmt.Fprintf(stdout, "%-30s %14d  count\n", "churn.attempted", attempted)
	for _, row := range []struct {
		name string
		n    uint64
	}{{"churn.failed_share_dial", dialFail.Load()}, {"churn.failed_share_read", readFail.Load()}, {"churn.failed_share_eof", eofFail.Load()}} {
		fmt.Fprintf(stdout, "%-30s %14s  share (%d)\n", row.name, fmtVal(ratio(float64(row.n), float64(attempted))), row.n)
	}
	fmt.Fprintf(stdout, "%-30s %14d  count (server Accept calls that timed out)\n", "churn.accept_timeouts", acceptIdle.Load())
	fmt.Fprintf(stdout, "%-30s %14d  count (server PoolUsed[\"accept\"] after every listener drained; 0 = no leak)\n",
		"churn.accept_pool_leaked", tb.srv.Stats().PoolUsed["accept"])
	return 0
}
