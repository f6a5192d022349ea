package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	tas "repro"
	"repro/internal/telemetry"
)

// params is one run's settings. main fixes epochs and warm-up; the
// test shortens them.
//
// A run is cut into epochs, each a fresh stack: set up, warm up,
// measure a few windows, tear down. How fast one stack runs is settled
// when it starts (which goroutines share a processor, where the flows
// hash) and differs by 10-30% between stacks in one process, far more
// than between processes; the median over several stacks repeats where
// one long measurement of one stack does not.
type params struct {
	workload workload
	seed     int64
	seconds  float64 // measured time, all epochs together
	epochs   int     // fresh stacks measured
	setups   int     // set-ups timed per epoch for setup_s; the last one is the stack that is measured
	warmup   float64 // per epoch, untimed: the DCTCP rate and core scaling settle
	window   float64 // target window length
	trace    bool
	outDir   string // span file goes here; "" writes none
}

// result is what a run reports: the accepting driver's four keys.
type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   *metrics
	notes     []string
}

func isTimeout(err error) bool { return tas.ErrTimeout(err) }

// snapshot is every cumulative count the window metrics are deltas of,
// read at one instant.
type snapshot struct {
	t                      int64   // ns on the segment's clock
	cpu                    float64 // process user+sys seconds
	gcCPU                  float64 // seconds
	mallocs, mbytes        uint64
	ops, attempted, failed uint64
	bytes, copied          uint64
	latN, lateN            []uint64 // per gen: samples recorded so far
	outstanding            int64
}

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func processCPU() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// segment is one epoch: one stack under one load for warm-up plus
// measured time.
type segment struct {
	w     workload
	tb    *testbed
	l     *load
	gens  []*gen
	paced *paced
	wg    sync.WaitGroup

	setups    []float64  // seconds each build took
	dialNs    []int64    // the measured stack's set-up Dials
	snaps     []snapshot // one per window boundary
	ringDepth []float64  // traced: deepest rx ring, every 10 ms
	before    layerCounts
	after     layerCounts
	wakeup    [2]float64 // traced: Wakeup histogram p50, p99 at teardown
	bad       []string   // what verify found
}

func (s *segment) first() snapshot { return s.snaps[0] }
func (s *segment) last() snapshot  { return s.snaps[len(s.snaps)-1] }

func (s *segment) snapshot() snapshot {
	rtmetrics.Read(runtimeSamples)
	sn := snapshot{
		t:       s.l.clk.now(),
		cpu:     processCPU(),
		mallocs: runtimeSamples[0].Value.Uint64(),
		mbytes:  runtimeSamples[1].Value.Uint64(),
		gcCPU:   runtimeSamples[2].Value.Float64(),
	}
	for _, g := range s.gens {
		sn.ops += g.ops.Load()
		sn.attempted += g.attempted.Load()
		sn.failed += g.failed.Load()
		sn.bytes += g.bytes.Load()
		sn.copied += g.copied.Load()
		sn.latN = append(sn.latN, g.lat.n.Load())
		sn.lateN = append(sn.lateN, g.late.n.Load())
	}
	if s.paced != nil {
		sn.outstanding = int64(s.paced.issued.Load() - s.paced.done.Load())
	}
	return sn
}

// start launches the workload's goroutines on the testbed. seconds
// bounds how long they will run.
func (s *segment) start(seed int64, epoch int, trace bool, seconds float64) {
	s.l = &load{clk: clock{epoch: time.Now()}, seed: uint64(seed), epoch: epoch, trace: trace}
	spawn := func(server bool, f func(g *gen)) {
		g := &gen{server: server}
		s.gens = append(s.gens, g)
		s.wg.Add(1)
		go func() { defer s.wg.Done(); f(g) }()
	}
	for i := range s.tb.cliConns {
		i, cc, sc := i, s.tb.cliConns[i], s.tb.srvConns[i]
		switch s.w.kind {
		case closedRPC:
			spawn(true, func(g *gen) { s.l.echoServer(sc, g) })
			spawn(false, func(g *gen) { s.l.closedClient(cc, i, g) })
		case openRPC:
			s.paced = newPaced(seconds)
			spawn(true, func(g *gen) { s.l.echoServer(sc, g) })
			spawn(false, func(g *gen) { s.l.pacedSender(cc, s.paced, g) })
			spawn(false, func(g *gen) { s.l.pacedReceiver(cc, s.paced, g) })
		case bulk:
			spawn(true, func(g *gen) { s.l.bulkServer(sc, i, g) })
			spawn(false, func(g *gen) { s.l.bulkClient(cc, i, g) })
		}
	}
}

// measure warms up, then takes a snapshot at every window boundary.
// Window lengths are whatever the clock says they were.
func (s *segment) measure(warmup, seconds, window float64) {
	time.Sleep(time.Duration(warmup * float64(time.Second)))
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	if s.l.trace {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					s.ringDepth = append(s.ringDepth, deepestRxRing(s.tb))
				}
			}
		}()
	}
	windows := max(1, int(seconds/window+0.5))
	win := time.Duration(seconds * float64(time.Second) / float64(windows))
	s.before = readLayerCounts(s.tb)
	t0 := time.Now()
	s.snaps = append(s.snaps, s.snapshot())
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * win)))
		s.snaps = append(s.snaps, s.snapshot())
	}
	s.after = readLayerCounts(s.tb)
	close(stopSampler)
	samplerDone.Wait()
}

// finish stops the load, waits for every goroutine, and tears down.
func (s *segment) finish() {
	s.l.stop.Store(true)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	stuck := false
	select {
	case <-done:
	case <-time.After(3 * opDeadline):
		// A goroutine is stuck inside the stack; closing the services
		// fails its call.
		stuck = true
	}
	if s.l.trace {
		var n uint64
		for _, svc := range []*tas.Service{s.tb.srv, s.tb.cli} {
			// The histogram cannot be reset or subtracted, so it covers
			// this stack's whole life, set-up and warm-up included. The
			// service whose apps blocked more often is reported.
			if h := svc.Telemetry().Wakeup; h.Count() > n {
				n, s.wakeup = h.Count(), [2]float64(h.Quantiles(0.5, 0.99))
			}
		}
	}
	s.tb.close()
	<-done
	s.verify(stuck)
	// The segment outlives its stack: keep what is reported, let the
	// flows and their payload buffers go.
	s.dialNs, s.tb = s.tb.dialNs, nil
}

// verify checks what the epoch's outputs must satisfy beyond the
// per-op comparison.
func (s *segment) verify(stuck bool) {
	if stuck {
		s.bad = append(s.bad, "a load goroutine did not return within 3 s of being told to stop")
	}
	if s.last().ops == s.first().ops {
		s.bad = append(s.bad, "no op completed in the measured time")
	}
	for i, g := range s.gens {
		if g.died.Load() {
			s.bad = append(s.bad, fmt.Sprintf("load goroutine %d gave up on a broken connection", i))
		}
	}
	switch s.w.kind {
	case bulk:
		// Exact byte count: every byte a client handed over reached a server.
		var wrote, read uint64
		for _, g := range s.gens {
			if g.server {
				read += g.bytes.Load()
			} else {
				wrote += g.copied.Load()
			}
		}
		if wrote != read {
			s.bad = append(s.bad, fmt.Sprintf("bulk_stream: clients wrote %d bytes, servers read %d", wrote, read))
		}
	case openRPC:
		// A backlog still growing at the end means the rate was not sustained.
		n := len(s.snaps)
		if end := s.snaps[n-1].outstanding; end > pacedRate/10 && end > s.snaps[n-2].outstanding {
			s.bad = append(s.bad, fmt.Sprintf("rpc_paced: backlog growing at the end (%d outstanding)", end))
		}
	}
}

// runEpoch sets a fresh stack up, loads it, measures it for seconds
// and tears it down.
func runEpoch(p params, epoch int, trace bool, seconds float64) (*segment, error) {
	s := &segment{w: p.workload}
	for i := 0; i < max(p.setups, 1); i++ {
		if s.tb != nil {
			s.tb.close()
		}
		// Garbage of earlier stacks is collected now, not in a window
		// or a timed set-up.
		runtime.GC()
		t0 := time.Now()
		var err error
		if s.tb, err = build(p.workload, trace); err != nil {
			return nil, fmt.Errorf("epoch %d set-up %d: %w", epoch, i, err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
	}
	s.start(p.seed, epoch, trace, p.warmup+seconds+2)
	s.measure(p.warmup, seconds, p.window)
	s.finish()
	return s, nil
}

// windowValues computes one value per window from adjacent snapshots,
// over all the segments.
func windowValues(segs []*segment, f func(a, b snapshot) float64) []float64 {
	var out []float64
	for _, s := range segs {
		for i := 1; i < len(s.snaps); i++ {
			out = append(out, f(s.snaps[i-1], s.snaps[i]))
		}
	}
	return out
}

// windowQuantiles returns, per window, the quantiles of the latency
// samples recorded in it (all gens merged), in microseconds.
func windowQuantiles(segs []*segment, qs ...float64) [][]float64 {
	out := make([][]float64, len(qs))
	var buf []float64
	for _, s := range segs {
		for i := 1; i < len(s.snaps); i++ {
			buf = buf[:0]
			for gi, g := range s.gens {
				buf = g.lat.slice(buf, s.snaps[i-1].latN[gi], s.snaps[i].latN[gi])
			}
			sort.Float64s(buf)
			for k, q := range qs {
				out[k] = append(out[k], quantile(buf, q)/1e3)
			}
		}
	}
	return out
}

func elapsed(a, b snapshot) float64 { return float64(b.t-a.t) / 1e9 }

func perOp(num func(a, b snapshot) float64) func(a, b snapshot) float64 {
	return func(a, b snapshot) float64 { return ratio(num(a, b), float64(b.ops-a.ops)) }
}

func opsPerSec(a, b snapshot) float64 { return float64(b.ops-a.ops) / elapsed(a, b) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndMetrics fills the user-visible metrics from plain epochs:
// each is the median over every window of every epoch.
func endToEndMetrics(m *metrics, segs []*segment) {
	var setups []float64
	for _, s := range segs {
		setups = append(setups, s.setups...)
	}
	m.set("setup_s", median(setups))
	m.set("ops_per_s", median(windowValues(segs, opsPerSec)))
	m.set("goodput_gbps", median(windowValues(segs, func(a, b snapshot) float64 {
		return float64(b.bytes-a.bytes) * 8 / 1e9 / elapsed(a, b)
	})))
	lat := windowQuantiles(segs, 0.5, 0.99)
	m.set("lat_p50_us", median(lat[0]))
	m.set("lat_p99_us", median(lat[1]))
	m.set("cpu_us_per_op", median(windowValues(segs, perOp(func(a, b snapshot) float64 { return (b.cpu - a.cpu) * 1e6 }))))
	m.set("allocs_per_op", median(windowValues(segs, perOp(func(a, b snapshot) float64 { return float64(b.mallocs - a.mallocs) }))))
}

// run executes one workload as the accepting driver asks for it: a
// plain run reporting the end-to-end metrics, or a traced run
// reporting the per-layer ones.
func run(p params) (*result, error) {
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	r := &result{metrics: newMetrics(defs)}
	if p.trace {
		// The layer probes first, while this process is still idle.
		if err := probesInChild(r.metrics, p.seed, p.seconds); err != nil {
			return nil, err
		}
	}

	// A traced run alternates plain and traced epochs, so that tracing
	// overhead is a difference inside one process; together they
	// measure for p.seconds.
	var plain, tracedSegs []*segment
	for e := 0; e < p.epochs; e++ {
		trace := p.trace && e%2 == 1
		s, err := runEpoch(p, e, trace, p.seconds/float64(p.epochs))
		if err != nil {
			return nil, err
		}
		if trace {
			tracedSegs = append(tracedSegs, s)
		} else {
			plain = append(plain, s)
		}
	}
	reported := plain
	if p.trace {
		if len(tracedSegs) == 0 {
			return nil, fmt.Errorf("a traced run needs at least 2 epochs, got %d", p.epochs)
		}
		reported = tracedSegs
	}
	for _, s := range append(plain, tracedSegs...) {
		r.notes = append(r.notes, s.bad...)
	}
	var samples uint64
	var measured float64
	for _, s := range reported {
		r.attempted += s.last().attempted - s.first().attempted
		r.failed += s.last().failed - s.first().failed
		measured += elapsed(s.first(), s.last())
		for gi := range s.gens {
			samples += s.last().latN[gi] - s.first().latN[gi]
		}
	}
	r.correct = len(r.notes) == 0
	windows := windowValues(reported, opsPerSec)
	r.notes = append(r.notes, fmt.Sprintf("%d latency samples in %d windows of %.2f s over %d epochs; peak RSS %.0f MiB; ops/s per window %.0f",
		samples, len(windows), measured/float64(len(windows)), len(reported), peakRSSMiB(), windows))
	if !p.trace {
		endToEndMetrics(r.metrics, plain)
		return r, nil
	}

	var spanPath string
	if p.outDir != "" {
		spanPath = filepath.Join(p.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", p.workload.name, p.seed))
		r.notes = append(r.notes, "spans: "+spanPath)
	}
	if err := layerMetrics(r.metrics, plain, tracedSegs, spanPath); err != nil {
		return nil, err
	}
	return r, nil
}

// layerCounts is every cumulative count the product exposes that the
// per-layer metrics are deltas of, summed over both services.
type layerCounts struct {
	n           [numLayerCounts]uint64
	cycles      [telemetry.NumModules]telemetry.ModuleTotal // zero when telemetry is off
	activeCores int                                         // a gauge, not a count
}

const (
	cRxPkts = iota
	cTxPkts
	cAcks
	cExceptions
	cBlocks
	cRxRingDrops
	cRxBufDrops
	cOooDropped
	cRexmitTimeouts
	cHandshakeRexmits
	cFabDelivered
	cFabDropped
	numLayerCounts
)

func readLayerCounts(tb *testbed) layerCounts {
	var c layerCounts
	for _, svc := range []*tas.Service{tb.srv, tb.cli} {
		eng := svc.Engine()
		for i := 0; i < eng.MaxCores(); i++ {
			st := eng.Stats(i)
			c.n[cRxPkts] += st.RxPackets.Load()
			c.n[cTxPkts] += st.TxPackets.Load()
			c.n[cAcks] += st.AcksSent.Load()
			c.n[cExceptions] += st.Exceptions.Load()
			c.n[cBlocks] += st.Blocks.Load()
		}
		d := eng.Drops()
		c.n[cRxRingDrops] += d.RxRingFull
		c.n[cRxBufDrops] += d.RxBufFull
		c.n[cOooDropped] += d.OooDropped
		sc := svc.Slow().Counters()
		c.n[cRexmitTimeouts] += sc.Timeouts
		c.n[cHandshakeRexmits] += sc.HandshakeRexmits
		c.activeCores += svc.ActiveCores()
		if t := svc.Telemetry(); t != nil {
			for m := range c.cycles {
				g := t.Cycles.Total(telemetry.Module(m))
				c.cycles[m].Nanos += g.Nanos
				c.cycles[m].Items += g.Items
			}
		}
	}
	fs := tb.fab.Stats()
	c.n[cFabDelivered], c.n[cFabDropped] = fs.Delivered, fs.Dropped
	return c
}

// addDelta adds what happened between snapshots a and b; activeCores
// is b's.
func (c *layerCounts) addDelta(a, b layerCounts) {
	for i := range c.n {
		c.n[i] += b.n[i] - a.n[i]
	}
	for m := range c.cycles {
		c.cycles[m].Nanos += b.cycles[m].Nanos - a.cycles[m].Nanos
		c.cycles[m].Items += b.cycles[m].Items - a.cycles[m].Items
	}
	c.activeCores = b.activeCores
}

func deepestRxRing(tb *testbed) float64 {
	deepest := 0
	for _, svc := range []*tas.Service{tb.srv, tb.cli} {
		eng := svc.Engine()
		for i := 0; i < eng.MaxCores(); i++ {
			if d, _ := eng.RxRingDepth(i); d > deepest {
				deepest = d
			}
		}
	}
	return float64(deepest)
}

// layerMetrics fills the per-layer metrics that come from the traced
// epochs: counter deltas between each epoch's first and last window
// boundary, summed; its spans; and its difference from the plain
// epochs.
func layerMetrics(m *metrics, plain, segs []*segment, spanPath string) error {
	var secs, ops, cpuNs, gcNs, copied, mbytes, attempted, failed float64
	var d layerCounts
	var logs []*spanLog
	var depth, late, lat, wake50, wake99 []float64
	var outstanding int64
	for _, s := range segs {
		first, last := s.first(), s.last()
		secs += elapsed(first, last)
		ops += float64(last.ops - first.ops)
		cpuNs += (last.cpu - first.cpu) * 1e9
		gcNs += (last.gcCPU - first.gcCPU) * 1e9
		copied += float64(last.copied - first.copied)
		mbytes += float64(last.mbytes - first.mbytes)
		attempted += float64(last.attempted - first.attempted)
		failed += float64(last.failed - first.failed)
		d.addDelta(s.before, s.after)

		logs = append(logs, dialSpans(s))
		for gi, g := range s.gens {
			logs = append(logs, &g.spans)
			late = g.late.slice(late, first.lateN[gi], last.lateN[gi])
			lat = g.lat.slice(lat, first.latN[gi], last.latN[gi])
			outstanding = max(outstanding, g.outstandingMax.Load())
		}
		depth = append(depth, s.ringDepth...)
		wake50, wake99 = append(wake50, s.wakeup[0]), append(wake99, s.wakeup[1])
	}

	sum, err := summarize(logs, spanPath)
	if err != nil {
		return err
	}
	count := func(i int) float64 { return float64(d.n[i]) }
	nanos := func(m telemetry.Module) float64 { return float64(d.cycles[m].Nanos) }
	items := func(m telemetry.Module) float64 { return float64(d.cycles[m].Items) }
	rxNs, txNs, ccNs, copyNs := nanos(telemetry.ModRx), nanos(telemetry.ModTx), nanos(telemetry.ModCC), nanos(telemetry.ModAppCopy)
	timerNs, reaperNs, ticks := nanos(telemetry.ModTimer), nanos(telemetry.ModReaper), items(telemetry.ModCC)
	m.set("libtas.send_ns", median(sum.sendNs))
	m.set("libtas.recv_ns", median(sum.recvNs))
	m.set("slowpath.dial_us_p50", median(sum.dialNs)/1e3)

	m.set("libtas.app_copy_ns_per_kib", ratio(copyNs, copied/1024))
	m.set("libtas.app_copy_cpu_share", ratio(copyNs, cpuNs))
	m.set("libtas.wakeup_p50_us", median(wake50))
	m.set("libtas.wakeup_p99_us", median(wake99))

	m.set("fastpath.rx_ns_per_pkt", ratio(rxNs, items(telemetry.ModRx)))
	m.set("fastpath.tx_ns_per_item", ratio(txNs, items(telemetry.ModTx)))
	m.set("fastpath.pkts_per_op", ratio(count(cRxPkts)+count(cTxPkts), ops))
	m.set("fastpath.acks_per_op", ratio(count(cAcks), ops))
	m.set("fastpath.blocks_per_s", ratio(count(cBlocks), secs))
	sort.Float64s(depth)
	m.set("fastpath.rx_ring_depth_p99", quantile(depth, 0.99))
	m.set("fastpath.rx_ring_drops", count(cRxRingDrops))
	m.set("fastpath.rxbuf_drops", count(cRxBufDrops))
	m.set("fastpath.ooo_dropped", count(cOooDropped))
	m.set("fastpath.exceptions_per_op", ratio(count(cExceptions), ops))
	m.set("fastpath.active_cores", float64(d.activeCores))

	m.set("slowpath.tick_us", ratio(ccNs, ticks)/1e3)
	m.set("slowpath.timer_sweep_us", ratio(timerNs, ticks)/1e3)
	m.set("slowpath.rexmit_timeouts", count(cRexmitTimeouts))
	m.set("slowpath.handshake_rexmits", count(cHandshakeRexmits))

	m.set("fabric.dropped", count(cFabDropped))
	m.set("fabric.delivered_per_op", ratio(count(cFabDelivered), ops))

	m.set("trace.overhead_share", 1-ratio(median(windowValues(segs, opsPerSec)), median(windowValues(plain, opsPerSec))))
	nullNs := nullOpNs(segs[0].w, segs[0].l.seed)
	m.set("harness.null_op_ns", nullNs)
	m.set("trace.unattributed_share", 1-ratio(rxNs+txNs+ccNs+timerNs+reaperNs+copyNs+gcNs+nullNs*ops, cpuNs))

	m.set("runtime.bytes_per_op", ratio(mbytes, ops))
	m.set("runtime.gc_cpu_share", ratio(gcNs, cpuNs))
	m.set("runtime.peak_rss_mib", peakRSSMiB())

	sort.Float64s(late)
	sort.Float64s(lat)
	if segs[0].paced == nil {
		outstanding = int64(segs[0].w.conns)
	}
	m.set("harness.gen_late_p99_us", quantile(late, 0.99)/1e3)
	m.set("harness.outstanding_max", float64(outstanding))
	m.set("harness.lat_p999_us", quantile(lat, 0.999)/1e3)
	m.set("harness.failed_share", ratio(failed, attempted))
	return nil
}

// dialSpans turns an epoch's set-up Dial timings into spans, laid end
// to end, ids in their own range so they never join an op.
func dialSpans(s *segment) *spanLog {
	l := &spanLog{}
	var at int64
	for i, ns := range s.dialNs {
		l.add(dialOpBase|uint64(s.l.epoch)<<32|uint64(i), spanDial, "", "client", at, at+ns)
		at += ns
	}
	return l
}
