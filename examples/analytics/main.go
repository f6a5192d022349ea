// Analytics example: a two-node FlexStorm pipeline (§5.4) over live TAS
// connections. Node A runs word-count executors and emits updated counts
// to node B over a TAS connection; node B aggregates. Compare the
// per-stage latency breakdown with and without mux batching — the
// difference TAS eliminates (Table 8).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	tas "repro"
	"repro/internal/apps/flexstorm"
)

var words = []string{"tas", "fast", "path", "slow", "queue", "flow", "rate", "core"}

func runPipeline(batch time.Duration) {
	fab := tas.NewFabric()
	hostA, err := fab.NewService("10.0.1.1", tas.Config{MaxCores: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer hostA.Close()
	hostB, err := fab.NewService("10.0.1.2", tas.Config{MaxCores: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer hostB.Close()

	// Node B: accepts the stream from A and counts final tuples.
	bctx := hostB.NewContext()
	ln, err := bctx.Listen(4000)
	if err != nil {
		log.Fatal(err)
	}
	nodeB := flexstorm.NewNode(flexstorm.NodeConfig{Executors: 2}, flexstorm.WordCount, nil)
	defer nodeB.Close()
	accepted := make(chan struct{})
	go func() {
		conn, err := ln.Accept(5 * time.Second)
		if err != nil {
			log.Fatal(err)
		}
		close(accepted)
		nodeB.Ingest(conn)
	}()

	// Node A: spout -> executors -> (batching) mux -> TAS connection.
	actx := hostA.NewContext()
	conn, err := actx.Dial("10.0.1.2", 4000)
	if err != nil {
		log.Fatal(err)
	}
	<-accepted
	nodeA := flexstorm.NewNode(flexstorm.NodeConfig{Executors: 2, BatchFlush: batch}, flexstorm.WordCount, conn)
	defer nodeA.Close()

	const tuples = 20000
	rng := rand.New(rand.NewSource(42))
	start := time.Now()
	for i := 0; i < tuples; i++ {
		nodeA.Inject(flexstorm.Tuple{
			ID: uint64(i), Key: words[rng.Intn(len(words))], Value: 1,
			Emitted: time.Now().UnixNano(),
		})
	}
	// Wait for node B to see everything.
	for nodeB.Stats.TuplesIn.Load() < tuples {
		if time.Since(start) > 30*time.Second {
			log.Fatalf("pipeline stalled: B saw %d/%d", nodeB.Stats.TuplesIn.Load(), tuples)
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	inQ, proc, outQ := nodeA.AvgLatencies()
	fmt.Printf("  batch=%-6v  %6.0f ktuples/s   node-A input %.1fus  process %.1fus  output %.2fms\n",
		batch, float64(tuples)/elapsed.Seconds()/1000,
		inQ/1e3, proc/1e3, outQ/1e6)
}

func main() {
	fmt.Println("FlexStorm over TAS, 20k tuples through a 2-node pipeline:")
	fmt.Println("with 10ms mux batching (the Linux deployment's setting):")
	runPipeline(10 * time.Millisecond)
	fmt.Println("without batching (TAS does not need it, §5.4):")
	runPipeline(0)
}
