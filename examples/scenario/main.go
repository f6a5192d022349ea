// Scenario example: write a chaos scenario as a Go Spec literal — the
// same shape a JSON spec file decodes to — run it twice, and show that
// the run report is deterministic: the same seed reproduces the same
// delivery digests and verdicts. The scenario pushes an RPC workload
// through a slow-path crash plus a burst-loss window, the same machinery
// behind the library scenarios that `tasbench -scenario <name>` executes.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/scenario"
)

func main() {
	ms := func(n int) scenario.Duration { return scenario.Duration(time.Duration(n) * time.Millisecond) }
	spec := &scenario.Spec{
		Name:        "literal-demo",
		Description: "RPC churn through a slow-path crash and a burst-loss window.",
		Seed:        7,
		Duration:    ms(30_000),
		Topology:    scenario.Topology{Clients: 2},
		Workload:    scenario.Workload{Kind: scenario.WorkRPC, Conns: 2, Calls: 40, MsgBytes: 128, CallsPerConn: 10},
		Impairments: []scenario.Impairment{
			{At: 0, Kind: scenario.ImpBurstLoss, GE: &scenario.GESpec{PGoodToBad: 0.02, PBadToGood: 0.2, LossBad: 0.5}},
			{At: ms(400), Kind: scenario.ImpClearLoss},
		},
		Faults: []scenario.FaultEvent{
			{At: ms(150), Kind: scenario.FaultSlowKill, Target: "server"},
			{At: ms(600), Kind: scenario.FaultSlowRestart, Target: "server"},
		},
		Assert: scenario.Assertions{Intact: true, AllComplete: true, RequireDegraded: true, MaxRecovery: ms(20_000)},
	}
	fmt.Printf("spec as JSON:\n%s\n\n", spec.JSON())

	run := func() *scenario.Report {
		rep, err := scenario.Run(spec, scenario.RunOptions{Log: os.Stderr})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	first := run()
	fmt.Println(first.Summary())

	second := run()
	d1 := first.DeterministicDigest()
	d2 := second.DeterministicDigest()
	fmt.Printf("deterministic digest, run 1: %s\n", d1[:16])
	fmt.Printf("deterministic digest, run 2: %s\n", d2[:16])
	if d1 != d2 {
		log.Fatal("FAIL: same seed produced different deterministic reports")
	}
	fmt.Println("same seed, same digests: the run is reproducible")

	if !first.Pass || !second.Pass {
		os.Exit(1)
	}
}
