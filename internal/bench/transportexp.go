package bench

import (
	"repro/internal/congestion"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

func init() {
	register(Experiment{ID: "table4", Title: "Peer compatibility: Linux/TAS sender-receiver matrix", Run: runTable4})
	register(Experiment{ID: "fig7", Title: "Throughput penalty under packet loss", Run: runFig7})
}

// bulkPair builds a 10G two-host link and runs nflows bulk flows from a
// to b with the given sender style and receiver mode, returning goodput
// in Gbps.
func bulkGoodput(seed int64, nflows int, loss float64, tasSender bool, mode transport.RecoveryMode, dur sim.Time) float64 {
	eng := sim.New(seed)
	a := netsim.NewHost(eng, protocol.MakeIPv4(10, 0, 0, 1))
	b := netsim.NewHost(eng, protocol.MakeIPv4(10, 0, 0, 2))
	netsim.ConnectPair(eng, a, b, netsim.PortConfig{
		RateBps: 10e9, PropDelay: 10 * sim.Microsecond, QueueCap: 500,
		ECNThreshold: 65, LossRate: loss,
	})
	ea, eb := transport.NewEndpoint(a), transport.NewEndpoint(b)
	var senders []*transport.Sender
	for i := 0; i < nflows; i++ {
		scfg := transport.SenderConfig{}
		if tasSender {
			c := congestion.DefaultConfig(10e9)
			c.IntervalNs = int64(200 * sim.Microsecond)
			scfg.Rate = congestion.NewRateDCTCP(c)
			scfg.ControlInterval = 200 * sim.Microsecond
			scfg.AdaptiveInterval = true // tau = 2x measured RTT (paper default)
		} else {
			scfg.Window = congestion.NewWindowDCTCP(1448, 1<<20)
		}
		s, _ := transport.StartFlow(ea, eb, uint16(10000+i), 9000, scfg, transport.ReceiverConfig{Mode: mode})
		senders = append(senders, s)
	}
	eng.RunUntil(dur)
	var total uint64
	for _, s := range senders {
		total += s.AckedBytes()
	}
	return float64(total) * 8 / (float64(dur) / 1e9) / 1e9
}

func runTable4(cfg RunConfig) *Result {
	dur := 200 * sim.Millisecond
	if cfg.Quick {
		dur = 60 * sim.Millisecond
	}
	r := &Result{
		ID: "table4", Title: "Compatibility: 100 bulk flows, 10G link (goodput, Gbps)",
		Header: []string{"Receiver \\ Sender", "Linux", "TAS"},
	}
	// Linux receiver = selective (SACK-like); TAS receiver = one-interval.
	ll := bulkGoodput(cfg.Seed, 100, 0, false, transport.RecoverySelective, dur)
	lt := bulkGoodput(cfg.Seed+1, 100, 0, true, transport.RecoverySelective, dur)
	tl := bulkGoodput(cfg.Seed+2, 100, 0, false, transport.RecoveryOneInterval, dur)
	tt := bulkGoodput(cfg.Seed+3, 100, 0, true, transport.RecoveryOneInterval, dur)
	r.AddRow("Linux", fmtF(ll, 2), fmtF(lt, 2))
	r.AddRow("TAS", fmtF(tl, 2), fmtF(tt, 2))
	r.Note("paper: 9.4 Gbps in all four combinations (line rate); wire-rate ceiling after headers ~9.5 Gbps")
	return r
}

func runFig7(cfg RunConfig) *Result {
	dur := 150 * sim.Millisecond
	seeds := 3
	if cfg.Quick {
		dur = 50 * sim.Millisecond
		seeds = 2
	}
	r := &Result{
		ID: "fig7", Title: "Throughput penalty vs packet loss (100 flows, one link)",
		Header: []string{"Loss %", "Linux penalty %", "TAS penalty %", "TAS simple (GBN) penalty %"},
	}
	type variant struct {
		tas  bool
		mode transport.RecoveryMode
	}
	variants := []variant{
		{false, transport.RecoverySelective},  // Linux: window + SACK-like
		{true, transport.RecoveryOneInterval}, // TAS
		{true, transport.RecoveryGoBackN},     // TAS simple recovery
	}
	// Lossless baselines per variant.
	base := make([]float64, len(variants))
	for i, v := range variants {
		base[i] = bulkGoodput(cfg.Seed+int64(i), 100, 0, v.tas, v.mode, dur)
	}
	for _, lossPct := range []float64{0.1, 0.2, 0.5, 1, 2, 5} {
		cells := []string{fmtF(lossPct, 1)}
		for i, v := range variants {
			var sum float64
			for s := 0; s < seeds; s++ {
				sum += bulkGoodput(cfg.Seed+int64(100*i+10*s)+int64(lossPct*1000), 100, lossPct/100, v.tas, v.mode, dur)
			}
			g := sum / float64(seeds)
			pen := (1 - g/base[i]) * 100
			if pen < 0 {
				pen = 0
			}
			cells = append(cells, fmtF(pen, 1))
		}
		r.AddRow(cells...)
	}
	r.Note("paper: TAS penalty <=1.5%% up to 1%% loss, 13%% at 5%%; TAS ~2x Linux; simple recovery ~3x TAS")
	return r
}
