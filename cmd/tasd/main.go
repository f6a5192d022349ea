// Command tasd runs a live TAS echo service demo: two TAS instances on
// an in-process fabric, an echo server on one, and a closed-loop client
// on the other, printing throughput, latency, and fast-path core
// activity once per second. It exercises the real fast path end to end
// (rings, flow table, rate buckets, slow-path handshakes).
//
//	tasd -duration 10s -conns 4 -msg 64 -cores 2
//
// It can also run one chaos scenario instead of the echo demo, or serve
// the scenario HTTP API (list scenarios, launch runs, poll reports):
//
//	tasd -scenario slowpath-outage-churn
//	tasd -scenario-api :8080
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"time"

	tas "repro"
	"repro/internal/apps/echo"
	"repro/internal/cpumodel"
	"repro/internal/scenario"
)

// runScenario executes one scenario (library name or JSON spec file)
// with live narration and returns the process exit code.
func runScenario(ref string) int {
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
	rep, err := scenario.Run(spec, scenario.RunOptions{Metrics: true, Log: os.Stderr})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario run: %v\n", err)
		return 2
	}
	fmt.Println(rep.Summary())
	if !rep.Pass {
		return 1
	}
	return 0
}

func main() {
	var (
		duration = flag.Duration("duration", 10*time.Second, "run time")
		conns    = flag.Int("conns", 4, "concurrent connections")
		msgSize  = flag.Int("msg", 64, "RPC message size (bytes)")
		cores    = flag.Int("cores", 2, "max fast-path cores per service")
		loss     = flag.Float64("loss", 0, "injected packet loss rate")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/flows, /debug/timeseries on this addr (e.g. :9090); enables telemetry (tastop points here)")
		scen     = flag.String("scenario", "", "run a chaos scenario (library name or JSON spec file) instead of the echo demo")
		scenAPI  = flag.String("scenario-api", "", "serve the scenario HTTP API (/scenarios, /runs, /runs/<id>) on this addr and block")
	)
	flag.Parse()

	if *scenAPI != "" {
		fmt.Printf("scenario API: http://%s/scenarios, POST/GET /runs, GET /runs/<id>\n", *scenAPI)
		log.Fatal(http.ListenAndServe(*scenAPI, scenario.NewAPI().Handler()))
	}
	if *scen != "" {
		os.Exit(runScenario(*scen))
	}

	cfg := tas.Config{MaxCores: *cores}
	if *metrics != "" {
		cfg.Telemetry.Enabled = true
	}
	fab := tas.NewFabric()
	fab.SetLoss(*loss)
	srv, err := fab.NewService("10.0.0.1", cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cli, err := fab.NewService("10.0.0.2", cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	if *metrics != "" {
		go func() {
			// The server service's view: its fast path handles both
			// directions of the echo traffic.
			if err := http.ListenAndServe(*metrics, srv.Telemetry().Handler()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		fmt.Printf("telemetry: http://%s/metrics (also /metrics.json, /debug/flows, /debug/timeseries; try tastop -addr %s)\n", *metrics, *metrics)
	}

	sctx := srv.NewContext()
	ln, err := sctx.Listen(7777)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept(0)
			if err != nil {
				return
			}
			// Hand each connection to its own context + goroutine.
			hctx := srv.NewContext()
			c.Rebind(hctx)
			go echo.Serve(c, *msgSize)
		}
	}()

	type sample struct {
		lat time.Duration
	}
	results := make(chan sample, 1<<16)
	stop := make(chan struct{})
	for i := 0; i < *conns; i++ {
		go func() {
			ctx := cli.NewContext()
			c, err := ctx.Dial("10.0.0.1", 7777)
			if err != nil {
				log.Printf("dial: %v", err)
				return
			}
			ec := echo.NewClient(c, *msgSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if err := ec.Call(); err != nil {
					log.Printf("call: %v", err)
					return
				}
				select {
				case results <- sample{lat: time.Since(t0)}:
				default:
				}
			}
		}()
	}

	fmt.Printf("TAS echo demo: %d conns, %dB RPCs, %d fast-path cores, loss %.1f%%\n",
		*conns, *msgSize, *cores, *loss*100)
	deadline := time.After(*duration)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-deadline:
			close(stop)
			eng := srv.Engine()
			var rx, tx, exc uint64
			for i := 0; i < *cores; i++ {
				st := eng.Stats(i)
				rx += st.RxPackets.Load()
				tx += st.TxPackets.Load()
				exc += st.Exceptions.Load()
			}
			fmt.Printf("server fast path totals: rx=%d tx=%d exceptions=%d active-cores=%d\n",
				rx, tx, exc, srv.ActiveCores())
			if t := srv.Telemetry(); t != nil {
				fmt.Println("server cycle breakdown:")
				t.Cycles.WriteBreakdown(os.Stdout, cpumodel.DefaultCyclesPerNs, rx+tx)
			}
			return
		case <-tick.C:
			var lats []time.Duration
		drain:
			for {
				select {
				case s := <-results:
					lats = append(lats, s.lat)
				default:
					break drain
				}
			}
			if len(lats) == 0 {
				fmt.Println("no completions this second")
				continue
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p := func(q float64) time.Duration { return lats[int(q*float64(len(lats)-1))] }
			fmt.Printf("%8d rpc/s  p50=%-10v p99=%-10v cores=%d\n",
				len(lats), p(0.5).Round(time.Microsecond), p(0.99).Round(time.Microsecond), srv.ActiveCores())
		}
	}
}
