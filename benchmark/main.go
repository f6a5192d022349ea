// Command benchmark is the repository's scoreboard: four workloads on
// the live stack (tas.Fabric -> two tas.Services over the in-process
// fabric: no kernel, no wire), seven end-to-end metrics measured with
// tracing off, and a traced run plus layer probes that give every
// layer a number. BENCHMARK.json at the repository root declares the
// same names; README.md here explains them.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last line (JSON)
//	benchmark -seed N                                         every workload, plain and traced, as child processes
//	benchmark -repeat K                                       K such sets; spreads against the bounds
//	benchmark -probe churn                                    the connect/RPC/close reproducer (ungated)
//	benchmark -probe layers                                   the layer probes; every traced run starts one as a child
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

const (
	defaultSeconds = 20   // BENCHMARK.json run_seconds
	epochCount     = 8    // fresh stacks per run
	setupCount     = 3    // set-ups timed per epoch; setup_s is the median of all
	warmupSeconds  = 0.75 // per epoch: only a cold stack's first half second runs slow (bulk: by a third)
	windowSeconds  = 1.25 // rate metrics are the median window
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process and print its result as the last line")
	seed := fs.Int64("seed", 1, "drives payload bytes, the Poisson schedule and probe key order; the product never reads it")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time per run; the layer probes' iteration counts scale with it")
	trace := fs.Int("trace", -1, "0: plain run, end-to-end metrics; 1: traced run, per-layer metrics; unset: both (whole-set modes)")
	repeat := fs.Int("repeat", 1, "run the whole set this many times (seeds seed, seed+1, ...) and compare against the bounds")
	probe := fs.String("probe", "", "churn: connect/RPC/close reproducer; layers: the layer probes, as a traced run starts them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}

	switch {
	case *probe == "churn":
		return churnProbe(stdout, stderr, *seed, *seconds)
	case *probe == "layers":
		return layerProbes(stdout, stderr, *seed, *seconds)
	case *probe != "":
		fmt.Fprintf(stderr, "benchmark: unknown probe %q\n", *probe)
		return 2
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		return single(stdout, stderr, params{
			workload: w, seed: *seed, seconds: *seconds, epochs: epochCount, setups: setupCount,
			warmup: warmupSeconds, window: windowSeconds,
			trace: *trace == 1, outDir: defaultOutDir(),
		})
	default:
		return suite(stdout, stderr, *seed, *seconds, *trace, *repeat)
	}
}

// defaultOutDir is out/ beside the sources, whether the program was
// started from the repository root or from its own directory.
func defaultOutDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// wireResult is the accepting driver's last-line format.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) wire() wireResult {
	w := wireResult{Correct: r.correct, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: make(map[string]wireMetric, len(r.metrics.defs))}
	for _, d := range r.metrics.defs {
		w.Metrics[d.name] = wireMetric{Value: r.metrics.values[d.name], Unit: d.unit}
	}
	return w
}

// emit prints a result: what a person reads first, the result object
// as the last line.
func emit(stdout, stderr io.Writer, r *result) int {
	if missing := r.metrics.missing(); len(missing) > 0 {
		fmt.Fprintln(stderr, "benchmark: metrics not measured:", strings.Join(missing, " "))
		return 1
	}
	for _, d := range r.metrics.defs {
		fmt.Fprintf(stdout, "%-30s %14s  %s\n", d.name, fmtVal(r.metrics.values[d.name]), d.unit)
	}
	fmt.Fprintf(stdout, "attempted %d  failed %d  correct %v\n", r.attempted, r.failed, r.correct)
	for _, n := range r.notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	line, err := json.Marshal(r.wire())
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// single runs one workload in this process.
func single(stdout, stderr io.Writer, p params) int {
	newStamp(p.seed).print(stdout)
	mode := "plain run (tracing off): end-to-end metrics"
	if p.trace {
		mode = "traced run (epochs alternate tracing off and on), layer probes first in a child process: per-layer metrics"
	}
	fmt.Fprintf(stdout, "# workload %s, %.4g s measured over %d fresh stacks, %.4g s warm-up each, %s\n# %s\n",
		p.workload.name, p.seconds, p.epochs, p.warmup, mode, p.workload.why)
	r, err := run(p)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return emit(stdout, stderr, r)
}
