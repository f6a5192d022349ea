// KV store example: the paper's §5.3 workload on the live TAS stack.
// A server service hosts a sharded memcached-model store; three client
// contexts drive zipf-skewed 90/10 GET/SET traffic over TAS connections
// for a few seconds and report throughput and latency percentiles.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	tas "repro"
	"repro/internal/apps/kv"
)

func main() {
	fab := tas.NewFabric()
	server, err := fab.NewService("10.0.0.1", tas.Config{MaxCores: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	client, err := fab.NewService("10.0.0.2", tas.Config{MaxCores: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Server: preloaded store, accept loop, one serving goroutine per
	// connection.
	store := kv.NewStore(16)
	workload := kv.NewWorkload(rand.New(rand.NewSource(1)), 5000, 32, 64, 0.9, 0.9)
	workload.Preload(store)

	sctx := server.NewContext()
	ln, err := sctx.Listen(11211)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept(0)
			if err != nil {
				return
			}
			// Each connection gets its own context (contexts are
			// single-goroutine, like the paper's per-thread contexts).
			hctx := server.NewContext()
			c.Rebind(hctx)
			go kv.ServeConn(c, store)
		}
	}()

	// Clients: 3 contexts (threads), each with its own connection.
	const clients = 3
	const runFor = 3 * time.Second
	var wg sync.WaitGroup
	var mu sync.Mutex
	var allLats []time.Duration
	var totalOps int

	for i := 0; i < clients; i++ {
		seed := int64(i + 7)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := client.NewContext()
			conn, err := ctx.Dial("10.0.0.1", 11211)
			if err != nil {
				log.Printf("dial: %v", err)
				return
			}
			kvc := kv.NewClient(conn)
			wl := kv.NewWorkload(rand.New(rand.NewSource(seed)), 5000, 32, 64, 0.9, 0.9)
			deadline := time.Now().Add(runFor)
			var lats []time.Duration
			for time.Now().Before(deadline) {
				req := wl.Next()
				t0 := time.Now()
				var err error
				if req.Op == kv.OpGet {
					_, _, err = kvc.Get(req.Key)
				} else {
					err = kvc.Set(req.Key, req.Value)
				}
				if err != nil {
					log.Printf("op: %v", err)
					return
				}
				lats = append(lats, time.Since(t0))
			}
			mu.Lock()
			allLats = append(allLats, lats...)
			totalOps += len(lats)
			mu.Unlock()
		}()
	}
	wg.Wait()

	sort.Slice(allLats, func(i, j int) bool { return allLats[i] < allLats[j] })
	q := func(p float64) time.Duration {
		if len(allLats) == 0 {
			return 0
		}
		return allLats[int(p*float64(len(allLats)-1))]
	}
	fmt.Printf("KV over TAS: %d ops in %v (%.0f ops/s)\n", totalOps, runFor, float64(totalOps)/runFor.Seconds())
	fmt.Printf("latency p50=%v p90=%v p99=%v\n",
		q(0.5).Round(time.Microsecond), q(0.9).Round(time.Microsecond), q(0.99).Round(time.Microsecond))
	fmt.Printf("store now holds %d keys\n", store.Len())
}
