// Command taskv runs the key-value store demo on the live TAS stack: a
// server service with a sharded store and a memslap-style client driving
// the paper's §5.3 workload (zipf keys, 90/10 GET/SET) over real TAS
// connections, printing throughput and hit rate.
//
//	taskv -duration 10s -conns 4 -keys 10000
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync/atomic"
	"time"

	tas "repro"
	"repro/internal/apps/kv"
)

func main() {
	var (
		duration = flag.Duration("duration", 10*time.Second, "run time")
		conns    = flag.Int("conns", 4, "client connections")
		keys     = flag.Int("keys", 10000, "key-space size")
		cores    = flag.Int("cores", 2, "max fast-path cores")
	)
	flag.Parse()

	fab := tas.NewFabric()
	srv, err := fab.NewService("10.0.0.1", tas.Config{MaxCores: *cores})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cli, err := fab.NewService("10.0.0.2", tas.Config{MaxCores: *cores})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	store := kv.NewStore(16)
	w := kv.NewWorkload(rand.New(rand.NewSource(1)), *keys, 32, 64, 0.9, 0.9)
	w.Preload(store)
	fmt.Printf("store preloaded with %d keys\n", store.Len())

	sctx := srv.NewContext()
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
			hctx := srv.NewContext()
			c.Rebind(hctx)
			go kv.ServeConn(c, store)
		}
	}()

	var ops, gets, hits atomic.Uint64
	stop := make(chan struct{})
	for i := 0; i < *conns; i++ {
		seed := int64(i + 100)
		go func() {
			ctx := cli.NewContext()
			c, err := ctx.Dial("10.0.0.1", 11211)
			if err != nil {
				log.Printf("dial: %v", err)
				return
			}
			client := kv.NewClient(c)
			wl := kv.NewWorkload(rand.New(rand.NewSource(seed)), *keys, 32, 64, 0.9, 0.9)
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := wl.Next()
				if req.Op == kv.OpGet {
					gets.Add(1)
					if _, ok, err := client.Get(req.Key); err != nil {
						log.Printf("get: %v", err)
						return
					} else if ok {
						hits.Add(1)
					}
				} else if err := client.Set(req.Key, req.Value); err != nil {
					log.Printf("set: %v", err)
					return
				}
				ops.Add(1)
			}
		}()
	}

	deadline := time.After(*duration)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var last uint64
	for {
		select {
		case <-deadline:
			close(stop)
			g, h := gets.Load(), hits.Load()
			fmt.Printf("total ops=%d gets=%d hit-rate=%.1f%%\n", ops.Load(), g, 100*float64(h)/float64(max64(g, 1)))
			return
		case <-tick.C:
			cur := ops.Load()
			fmt.Printf("%8d ops/s  (fast-path cores: %d)\n", cur-last, srv.ActiveCores())
			last = cur
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
