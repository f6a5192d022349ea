package main

import (
	"fmt"
	"time"

	tas "repro"
)

const (
	serverAddr = "10.0.0.1"
	clientAddr = "10.0.0.2"
	loadPort   = 7000 // loaded connection i dials loadPort+i
	idlePort   = 7100

	opDeadline = time.Second // every op, dial and accept carries it
)

// workload is one traffic mix. Names are fixed: later issues cite them.
type workload struct {
	name  string
	why   string
	kind  loadKind
	conns int // loaded connections
	idle  int // established, silent flows dialled during set-up
	cfg   tas.Config
}

type loadKind int

const (
	closedRPC loadKind = iota // one outstanding 64 B echo per connection
	openRPC                   // Poisson arrivals at pacedRate, pipelined
	bulk                      // one-way 64 KiB chunk stream
)

// rpcBufs makes rpc_small and rpc_idle_flows differ only in flow
// count: 2048 idle flows at the 256 KiB default would reserve 2 GiB.
var rpcBufs = tas.Config{RxBufSize: 16 << 10, TxBufSize: 16 << 10}

var workloads = []workload{
	{
		name: "rpc_small", kind: closedRPC, conns: 2, cfg: rpcBufs,
		why: "closed loop, 2 connections, 64 B echo: per-packet work dominates (fast-path rx/tx, ring hops, wake); copy and slow path idle",
	},
	{
		name: "rpc_idle_flows", kind: closedRPC, conns: 2, idle: 2048, cfg: rpcBufs,
		why: "rpc_small plus 2048 established silent flows: the slow-path control tick and flow-state footprint do the extra work",
	},
	{
		name: "bulk_stream", kind: bulk, conns: 2,
		why: "closed loop, 2 connections, one-way 64 KiB writes: payload copy, segmentation at MSS, ACK processing and the rate bucket dominate",
	},
	{
		name: "rpc_paced", kind: openRPC, conns: 1, cfg: rpcBufs,
		why: "open loop, Poisson 20000 req/s (~15% of saturation) on 1 connection: idle cores, spin/doze/block and app wake-up set the tail",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// testbed is the live stack one run drives: an in-process fabric and
// two services, reached through the public facade only.
type testbed struct {
	fab      *tas.Fabric
	srv, cli *tas.Service
	ctxs     []*tas.Context

	cliConns []*tas.Conn // loaded connections, client side
	srvConns []*tas.Conn // and their accepted peers, same order
	idle     []*tas.Conn // held by no goroutine; kept reachable so they stay established

	dialNs []int64 // one per set-up Dial, in order
}

func (tb *testbed) context(s *tas.Service) *tas.Context {
	c := s.NewContext()
	tb.ctxs = append(tb.ctxs, c)
	return c
}

// build sets the stack up: services, one context per application
// goroutine, every connection established. Set-up time is the time
// this function takes.
func build(w workload, telemetry bool) (*testbed, error) {
	cfg := w.cfg
	cfg.Telemetry.Enabled = telemetry
	tb := &testbed{fab: tas.NewFabric()}
	var err error
	if tb.srv, err = tb.fab.NewService(serverAddr, cfg); err != nil {
		return nil, fmt.Errorf("server service: %w", err)
	}
	if tb.cli, err = tb.fab.NewService(clientAddr, cfg); err != nil {
		tb.srv.Close()
		return nil, fmt.Errorf("client service: %w", err)
	}
	for i := 0; i < w.conns; i++ {
		cs, ss, err := tb.connect(uint16(loadPort+i), 1)
		if err != nil {
			tb.close()
			return nil, fmt.Errorf("loaded connection %d: %w", i, err)
		}
		tb.cliConns = append(tb.cliConns, cs[0])
		tb.srvConns = append(tb.srvConns, ss[0])
	}
	if w.idle > 0 {
		cs, ss, err := tb.connect(idlePort, w.idle)
		if err != nil {
			tb.close()
			return nil, fmt.Errorf("idle flows: %w", err)
		}
		tb.idle = append(cs, ss...)
	}
	if want, got := w.conns+w.idle, tb.srv.Stats().FlowsLive; got != want {
		tb.close()
		return nil, fmt.Errorf("server holds %d flows after set-up, want %d", got, want)
	}
	return tb, nil
}

// connect establishes n connections to one listening port, each side
// on a fresh context. Dial and Accept go in lockstep: at this commit a
// dialler that runs ahead of the acceptor by a listen backlog trips the
// SYN-flood defences and loses connections the client believes
// established.
func (tb *testbed) connect(port uint16, n int) (cli, srv []*tas.Conn, err error) {
	ln, err := tb.context(tb.srv).Listen(port)
	if err != nil {
		return nil, nil, fmt.Errorf("listen %d: %w", port, err)
	}
	defer ln.Close()
	ctx := tb.context(tb.cli)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c, err := ctx.DialTimeout(serverAddr, port, opDeadline)
		if err != nil {
			return nil, nil, fmt.Errorf("dial %d of %d: %w", i, n, err)
		}
		tb.dialNs = append(tb.dialNs, int64(time.Since(t0)))
		s, err := ln.Accept(opDeadline)
		if err != nil {
			return nil, nil, fmt.Errorf("accept %d of %d: %w", i, n, err)
		}
		cli, srv = append(cli, c), append(srv, s)
	}
	return cli, srv, nil
}

// close tears the stack down. Context heartbeat goroutines outlive
// Service.Close, so they are stopped here.
func (tb *testbed) close() {
	tb.cli.Close()
	tb.srv.Close()
	for _, c := range tb.ctxs {
		c.Kill()
	}
}
