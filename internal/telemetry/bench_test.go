package telemetry

import "testing"

// Micro-benchmarks for the hot-path primitives: FlowRing.Record and
// CycleStats.AddFast run once per data segment, so their cost bounds
// the telemetry-on overhead gated by the fastpath overhead smoke test.

func BenchmarkFlowRingRecord(b *testing.B) {
	var now int64
	r := NewFlowRing("bench", 256, func() int64 { now++; return now })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(FESegRx, uint32(i), uint32(i), 64, 0)
	}
}

func BenchmarkCycleStatsAddFast(b *testing.B) {
	c := NewCycleStats(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AddFast(0, ModRx, 0, 1)
	}
}

func BenchmarkCachedNow(b *testing.B) {
	t := New(Config{Enabled: true}, 2)
	t.RefreshNow()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = t.CachedNow()
	}
	_ = sink
}
