package netsim

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
)

func mkPkt(src, dst protocol.IPv4, size int) *protocol.Packet {
	return &protocol.Packet{
		SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: 2000,
		Flags: protocol.FlagACK, PayloadLen: size, ECN: protocol.ECNECT0,
	}
}

type collector struct {
	pkts  []*protocol.Packet
	times []sim.Time
	eng   *sim.Engine
}

func (c *collector) Deliver(p *protocol.Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.eng.Now())
}

func TestPortSerialization(t *testing.T) {
	eng := sim.New(1)
	c := &collector{eng: eng}
	// 1 Gbps, 1us propagation.
	p := NewPort(eng, PortConfig{RateBps: 1e9, PropDelay: sim.Microsecond}, c)
	// Two packets, 1000B payload => wire = 1000+54+12(ts)? mkPkt has no TS:
	// 14+20+20+1000 = 1054B = 8432 bits => 8432ns at 1Gbps.
	p.Send(mkPkt(1, 2, 1000))
	p.Send(mkPkt(1, 2, 1000))
	eng.Run()
	if len(c.pkts) != 2 {
		t.Fatalf("delivered %d", len(c.pkts))
	}
	if c.times[0] != 8432+1000 {
		t.Fatalf("first delivery at %d, want 9432", c.times[0])
	}
	// Second is serialized behind the first: 2*8432 + 1000.
	if c.times[1] != 2*8432+1000 {
		t.Fatalf("second delivery at %d, want %d", c.times[1], 2*8432+1000)
	}
	st := p.Stats()
	if st.TxPackets != 2 || st.TxBytes != 2108 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPortDropTail(t *testing.T) {
	eng := sim.New(1)
	c := &collector{eng: eng}
	p := NewPort(eng, PortConfig{RateBps: 1e9, QueueCap: 5}, c)
	for i := 0; i < 10; i++ {
		p.Send(mkPkt(1, 2, 100))
	}
	eng.Run()
	// One packet is in transmission plus 5 queued is not how this model
	// works: the in-flight packet stays at queue[0], so 5 total accepted.
	if len(c.pkts) != 5 {
		t.Fatalf("delivered %d, want 5", len(c.pkts))
	}
	if p.Stats().Drops != 5 {
		t.Fatalf("drops = %d, want 5", p.Stats().Drops)
	}
}

func TestPortECNMarking(t *testing.T) {
	eng := sim.New(1)
	c := &collector{eng: eng}
	p := NewPort(eng, PortConfig{RateBps: 1e9, QueueCap: 100, ECNThreshold: 3}, c)
	for i := 0; i < 10; i++ {
		p.Send(mkPkt(1, 2, 1000))
	}
	eng.Run()
	marked := 0
	for _, pkt := range c.pkts {
		if pkt.ECN == protocol.ECNCE {
			marked++
		}
	}
	// Packets 0,1,2 see queue lengths 0,1,2 (below threshold); the rest
	// are marked.
	if marked != 7 {
		t.Fatalf("marked = %d, want 7", marked)
	}
	if p.Stats().CEMarks != 7 {
		t.Fatalf("CEMarks = %d", p.Stats().CEMarks)
	}
}

func TestPortECNIgnoresNonECT(t *testing.T) {
	eng := sim.New(1)
	c := &collector{eng: eng}
	p := NewPort(eng, PortConfig{RateBps: 1e9, QueueCap: 100, ECNThreshold: 1}, c)
	pkt := mkPkt(1, 2, 100)
	pkt.ECN = 0 // not ECN-capable
	p.Send(mkPkt(1, 2, 100))
	p.Send(pkt)
	eng.Run()
	if c.pkts[1].ECN == protocol.ECNCE {
		t.Fatal("non-ECT packet must not be marked")
	}
}

func TestPortLossInjection(t *testing.T) {
	eng := sim.New(42)
	c := &collector{eng: eng}
	p := NewPort(eng, PortConfig{RateBps: 1e12, QueueCap: 1 << 20, LossRate: 0.1}, c)
	const n = 20000
	for i := 0; i < n; i++ {
		p.Send(mkPkt(1, 2, 100))
	}
	eng.Run()
	lost := int(p.Stats().LossDrops)
	if lost < n/10*7/10 || lost > n/10*13/10 {
		t.Fatalf("lost %d of %d, want ~10%%", lost, n)
	}
	if len(c.pkts)+lost != n {
		t.Fatalf("delivered %d + lost %d != %d", len(c.pkts), lost, n)
	}
}

func TestPortAvgQueueLen(t *testing.T) {
	eng := sim.New(1)
	c := &collector{eng: eng}
	p := NewPort(eng, PortConfig{RateBps: 1e9, QueueCap: 100}, c)
	for i := 0; i < 10; i++ {
		p.Send(mkPkt(1, 2, 1000))
	}
	eng.Run()
	if avg := p.AvgQueueLen(); avg <= 0 || avg >= 10 {
		t.Fatalf("avg queue = %v, want in (0,10)", avg)
	}
	if p.MaxQueueLen() != 10 {
		t.Fatalf("max queue = %d, want 10", p.MaxQueueLen())
	}
}

func TestConnectPairRoundTrip(t *testing.T) {
	eng := sim.New(1)
	a := NewHost(eng, protocol.MakeIPv4(10, 0, 0, 1))
	b := NewHost(eng, protocol.MakeIPv4(10, 0, 0, 2))
	ConnectPair(eng, a, b, PortConfig{RateBps: 10e9, PropDelay: 10 * sim.Microsecond})
	var got *protocol.Packet
	b.Handler = DeliverFunc(func(p *protocol.Packet) {
		got = p
		// echo back
		r := mkPkt(b.IP, a.IP, 10)
		b.Send(r)
	})
	var reply *protocol.Packet
	a.Handler = DeliverFunc(func(p *protocol.Packet) { reply = p })
	a.Send(mkPkt(a.IP, b.IP, 10))
	eng.Run()
	if got == nil || reply == nil {
		t.Fatal("round trip failed")
	}
	if got.SrcMAC != a.MAC || got.DstMAC != b.MAC {
		t.Fatal("MAC stamping wrong")
	}
	if a.TxPackets != 1 || a.RxPackets != 1 || b.RxPackets != 1 {
		t.Fatal("host counters wrong")
	}
}

func TestStarRouting(t *testing.T) {
	eng := sim.New(1)
	var hosts []*Host
	for i := 0; i < 5; i++ {
		hosts = append(hosts, NewHost(eng, protocol.MakeIPv4(10, 0, 0, byte(i+1))))
	}
	cfg := PortConfig{RateBps: 10e9, PropDelay: sim.Microsecond}
	NewStar(eng, hosts, cfg, cfg)
	received := make(map[protocol.IPv4]int)
	for _, h := range hosts {
		h := h
		h.Handler = DeliverFunc(func(p *protocol.Packet) {
			if p.DstIP != h.IP {
				t.Errorf("host %v got packet for %v", h.IP, p.DstIP)
			}
			received[h.IP]++
		})
	}
	// Every host sends to every other host.
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				src.Send(mkPkt(src.IP, dst.IP, 100))
			}
		}
	}
	eng.Run()
	for _, h := range hosts {
		if received[h.IP] != 4 {
			t.Fatalf("host %v received %d, want 4", h.IP, received[h.IP])
		}
	}
	// Unknown destination is dropped, not crashed.
	hosts[0].Send(mkPkt(hosts[0].IP, protocol.MakeIPv4(99, 9, 9, 9), 10))
	eng.Run()
}

func TestStarIncastQueueing(t *testing.T) {
	eng := sim.New(1)
	var hosts []*Host
	for i := 0; i < 5; i++ {
		hosts = append(hosts, NewHost(eng, protocol.MakeIPv4(10, 0, 0, byte(i+1))))
	}
	cfg := PortConfig{RateBps: 10e9, PropDelay: sim.Microsecond, QueueCap: 64, ECNThreshold: 10}
	star := NewStar(eng, hosts, cfg, cfg)
	hosts[0].Handler = DeliverFunc(func(p *protocol.Packet) {})
	// 4 senders blast host 0: its downlink queue must build.
	for s := 1; s < 5; s++ {
		for i := 0; i < 50; i++ {
			hosts[s].Send(mkPkt(hosts[s].IP, hosts[0].IP, 1448))
		}
	}
	eng.Run()
	if star.DownPort(0).MaxQueueLen() < 10 {
		t.Fatalf("incast should build the victim downlink queue, max = %d", star.DownPort(0).MaxQueueLen())
	}
	if star.DownPort(0).Stats().CEMarks == 0 {
		t.Fatal("expected CE marks under incast")
	}
}

func smallFatTree() FatTreeConfig {
	return FatTreeConfig{
		Pods: 4, TorsPerPod: 2, ServersPerTor: 4, AggsPerPod: 2, Cores: 4,
		HostRateBps: 10e9, TorUpBps: 20e9, AggUpBps: 20e9,
		PropDelay: sim.Microsecond, QueueCap: 100, ECNThreshold: 65,
	}
}

func TestFatTreeConnectivity(t *testing.T) {
	eng := sim.New(1)
	ft := NewFatTree(eng, smallFatTree())
	if len(ft.Hosts) != 4*2*4 {
		t.Fatalf("hosts = %d", len(ft.Hosts))
	}
	if ft.NumSwitches() != 8+8+4 {
		t.Fatalf("switches = %d", ft.NumSwitches())
	}
	got := make(map[protocol.IPv4]map[protocol.IPv4]bool)
	for _, h := range ft.Hosts {
		h := h
		got[h.IP] = make(map[protocol.IPv4]bool)
		h.Handler = DeliverFunc(func(p *protocol.Packet) {
			if p.DstIP != h.IP {
				t.Errorf("misrouted: %v arrived at %v", p.DstIP, h.IP)
			}
			got[h.IP][p.SrcIP] = true
		})
	}
	// All-to-all, one packet each.
	for _, src := range ft.Hosts {
		for _, dst := range ft.Hosts {
			if src != dst {
				src.Send(mkPkt(src.IP, dst.IP, 64))
			}
		}
	}
	eng.Run()
	for _, dst := range ft.Hosts {
		if len(got[dst.IP]) != len(ft.Hosts)-1 {
			t.Fatalf("host %v received from %d sources, want %d", dst.IP, len(got[dst.IP]), len(ft.Hosts)-1)
		}
	}
}

func TestFatTreeHostByIP(t *testing.T) {
	eng := sim.New(1)
	ft := NewFatTree(eng, smallFatTree())
	h := ft.HostByIP(HostIP(2, 1, 3))
	if h == nil || h.IP != HostIP(2, 1, 3) {
		t.Fatal("HostByIP lookup failed")
	}
	if ft.HostByIP(protocol.MakeIPv4(10, 9, 9, 9)) != nil {
		t.Fatal("out-of-range lookup should return nil")
	}
}

func TestFatTreeECMPFlowStability(t *testing.T) {
	// All packets of one flow must take the same path (no reordering):
	// send many packets of one flow cross-pod and verify in-order arrival.
	eng := sim.New(1)
	ft := NewFatTree(eng, smallFatTree())
	src := ft.HostByIP(HostIP(0, 0, 0))
	dst := ft.HostByIP(HostIP(3, 1, 2))
	var seqs []uint32
	dst.Handler = DeliverFunc(func(p *protocol.Packet) { seqs = append(seqs, p.Seq) })
	for i := 0; i < 200; i++ {
		i := i
		eng.At(sim.Time(i)*2*sim.Microsecond, func() {
			p := mkPkt(src.IP, dst.IP, 1448)
			p.Seq = uint32(i)
			src.Send(p)
		})
	}
	eng.Run()
	if len(seqs) != 200 {
		t.Fatalf("received %d", len(seqs))
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("reordering at %d: got seq %d", i, s)
		}
	}
}

func TestPaperFatTreeShape(t *testing.T) {
	cfg := PaperFatTree()
	if n := cfg.Pods * cfg.TorsPerPod * cfg.ServersPerTor; n != 2560 {
		t.Fatalf("servers = %d, want 2560", n)
	}
	sw := cfg.Pods*cfg.TorsPerPod + cfg.Pods*cfg.AggsPerPod + cfg.Cores
	if sw != 112 {
		t.Fatalf("switches = %d, want 112", sw)
	}
	// 1:4 oversubscription at the ToR.
	down := float64(cfg.ServersPerTor) * cfg.HostRateBps
	up := float64(cfg.AggsPerPod) * cfg.TorUpBps
	if down/up != 4 {
		t.Fatalf("oversubscription = %v, want 4", down/up)
	}
}

func TestDumbbellRouting(t *testing.T) {
	eng := sim.New(1)
	edge := PortConfig{RateBps: 10e9, PropDelay: sim.Microsecond}
	core := PortConfig{RateBps: 10e9, PropDelay: 5 * sim.Microsecond, QueueCap: 64, ECNThreshold: 10}
	d := NewDumbbell(eng, 3, 2, edge, core)
	got := make(map[protocol.IPv4]int)
	for _, h := range append(append([]*Host{}, d.LeftHosts...), d.RightHosts...) {
		h := h
		h.Handler = DeliverFunc(func(p *protocol.Packet) {
			if p.DstIP != h.IP {
				t.Errorf("misrouted %v at %v", p.DstIP, h.IP)
			}
			got[h.IP]++
		})
	}
	all := append(append([]*Host{}, d.LeftHosts...), d.RightHosts...)
	for _, src := range all {
		for _, dst := range all {
			if src != dst {
				src.Send(mkPkt(src.IP, dst.IP, 100))
			}
		}
	}
	eng.Run()
	for _, h := range all {
		if got[h.IP] != len(all)-1 {
			t.Fatalf("host %v received %d, want %d", h.IP, got[h.IP], len(all)-1)
		}
	}
}

func TestDumbbellBottleneckQueues(t *testing.T) {
	eng := sim.New(1)
	edge := PortConfig{RateBps: 40e9, PropDelay: sim.Microsecond}
	core := PortConfig{RateBps: 10e9, PropDelay: 5 * sim.Microsecond, QueueCap: 100, ECNThreshold: 10}
	d := NewDumbbell(eng, 4, 1, edge, core)
	d.RightHosts[0].Handler = DeliverFunc(func(*protocol.Packet) {})
	// All left hosts blast the single right host: the inter-switch link
	// must queue and mark.
	for _, src := range d.LeftHosts {
		for i := 0; i < 30; i++ {
			src.Send(mkPkt(src.IP, d.RightHosts[0].IP, 1448))
		}
	}
	eng.Run()
	if d.Bottleneck().MaxQueueLen() < 10 {
		t.Fatalf("bottleneck max queue %d, want >= 10", d.Bottleneck().MaxQueueLen())
	}
	if d.Bottleneck().Stats().CEMarks == 0 {
		t.Fatal("expected CE marks at bottleneck")
	}
}
