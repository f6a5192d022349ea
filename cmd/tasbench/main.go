// Command tasbench regenerates the paper's evaluation tables and
// figures from this repository's simulators, and runs chaos scenarios
// from the declarative scenario engine. Run one experiment by id, or
// all of them:
//
//	tasbench -list
//	tasbench -run table1
//	tasbench -run all -quick
//
// or execute a scenario (a library name or a JSON spec file) and emit
// its machine-checkable run report:
//
//	tasbench -scenarios
//	tasbench -scenario flaky-rack
//	tasbench -scenario my-chaos.json -report report.json
//
// Output is the same rows/series the paper reports; EXPERIMENTS.md
// records paper-vs-measured for each id.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/scenario"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment id (see -list), or 'all'")
		list     = flag.Bool("list", false, "list experiment ids")
		quick    = flag.Bool("quick", false, "scaled-down parameters (faster, noisier)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		csvDir   = flag.String("csv", "", "also write <id>.csv files into this directory")
		scen     = flag.String("scenario", "", "run a chaos scenario: library name or JSON spec file")
		scenList = flag.Bool("scenarios", false, "list the scenario library")
		report   = flag.String("report", "", "write the scenario run report JSON to this file")
	)
	flag.Parse()

	if *scenList {
		fmt.Println("scenarios:")
		for _, n := range scenario.Names() {
			spec, err := scenario.Lookup(n)
			if err != nil {
				continue
			}
			fmt.Printf("  %-22s %s\n", n, spec.Description)
		}
		return
	}
	if *scen != "" {
		os.Exit(runScenario(*scen, *seed, *report))
	}

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nusage: tasbench -run <id>|all [-quick] [-seed N] | -scenario <name|file>")
		}
		return
	}

	cfg := bench.RunConfig{Seed: *seed, Quick: *quick}
	emit := func(res *bench.Result) {
		fmt.Println(res)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, res.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			}
		}
	}
	if *run == "all" {
		for _, e := range bench.All() {
			if e.Heavy {
				fmt.Printf("(skipping heavy experiment %s; run it explicitly with -run %s)\n\n", e.ID, e.ID)
				continue
			}
			start := time.Now()
			emit(e.Run(cfg))
			fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		return
	}
	e, ok := bench.ByID(*run)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *run)
		os.Exit(1)
	}
	emit(e.Run(cfg))
}

// runScenario resolves ref (library name first, then a JSON spec file),
// executes it, prints the summary, and optionally writes the report.
// Returns the process exit code: 0 pass, 1 assertion failure, 2 setup
// error.
func runScenario(ref string, seed int64, reportPath string) int {
	spec, err := scenario.Lookup(ref)
	if err != nil {
		raw, rerr := os.ReadFile(ref)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "scenario %q: not in library (%v) and not readable as a file (%v)\n", ref, err, rerr)
			return 2
		}
		if spec, err = scenario.ParseSpec(raw); err != nil {
			fmt.Fprintf(os.Stderr, "scenario file %s: %v\n", ref, err)
			return 2
		}
	}
	// -seed overrides the spec's seed only when given explicitly.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			spec.Seed = seed
		}
	})

	rep, err := scenario.Run(spec, scenario.RunOptions{Metrics: true, Log: os.Stderr})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario run: %v\n", err)
		return 2
	}
	fmt.Println(rep.Summary())
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 2
		}
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			f.Close()
			return 2
		}
		f.Close()
		fmt.Printf("report written to %s\n", reportPath)
	}
	if !rep.Pass {
		return 1
	}
	return 0
}
