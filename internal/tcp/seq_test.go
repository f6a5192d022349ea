package tcp

import (
	"testing"
	"testing/quick"
)

func TestSeqComparisons(t *testing.T) {
	cases := []struct {
		a, b uint32
		lt   bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{0xffffffff, 0, true},  // wraparound: max is just before 0
		{0, 0xffffffff, false}, // and 0 is after max
		{0x7fffffff, 0x80000000, true},
	}
	for _, c := range cases {
		if got := SeqLT(c.a, c.b); got != c.lt {
			t.Errorf("SeqLT(%#x, %#x) = %v, want %v", c.a, c.b, got, c.lt)
		}
	}
}

func TestSeqRelationsConsistent(t *testing.T) {
	f := func(a, b uint32) bool {
		// Exactly one of LT, GT, or equality holds (for in-range distances).
		if a == b {
			return !SeqLT(a, b) && !SeqGT(a, b) && SeqLEQ(a, b) && SeqGEQ(a, b)
		}
		lt, gt := SeqLT(a, b), SeqGT(a, b)
		if int32(a-b) == -2147483648 { // exactly half the space: LT by convention, GT false
			return lt && !gt
		}
		return lt != gt &&
			SeqLEQ(a, b) == lt && SeqGEQ(a, b) == gt &&
			SeqLT(b, a) == gt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqMaxMin(t *testing.T) {
	if SeqMax(0xfffffff0, 5) != 5 {
		t.Error("SeqMax should respect wraparound (5 is after 0xfffffff0)")
	}
	if SeqMin(0xfffffff0, 5) != 0xfffffff0 {
		t.Error("SeqMin should respect wraparound")
	}
	if SeqMax(7, 7) != 7 || SeqMin(7, 7) != 7 {
		t.Error("equal values")
	}
}

func TestSeqDiff(t *testing.T) {
	if SeqDiff(10, 3) != 7 {
		t.Error("simple diff")
	}
	if SeqDiff(2, 0xffffffff) != 3 {
		t.Error("wrapped diff")
	}
	if SeqDiff(0xffffffff, 2) != -3 {
		t.Error("negative wrapped diff")
	}
}

func TestSeqInWindow(t *testing.T) {
	if !SeqInWindow(5, 0, 10) {
		t.Error("5 in [0,10)")
	}
	if SeqInWindow(10, 0, 10) {
		t.Error("10 not in [0,10)")
	}
	if !SeqInWindow(1, 0xfffffffe, 10) {
		t.Error("wrapped window should include 1")
	}
	if SeqInWindow(0xfffffffd, 0xfffffffe, 10) {
		t.Error("just before window start")
	}
}

func TestRTTEstimator(t *testing.T) {
	r := NewRTTEstimator()
	if r.Initialized() {
		t.Fatal("fresh estimator should not be initialized")
	}
	if r.RTO() != r.MaxRTO {
		t.Fatal("RTO before samples should be MaxRTO")
	}
	r.Sample(100000) // 100us
	if r.SRTT() != 100000 || r.RTTVar() != 50000 {
		t.Fatalf("first sample: srtt=%d rttvar=%d", r.SRTT(), r.RTTVar())
	}
	for i := 0; i < 100; i++ {
		r.Sample(100000)
	}
	if r.SRTT() != 100000 {
		t.Fatalf("constant samples should converge srtt, got %d", r.SRTT())
	}
	if r.RTTVar() >= 50000 {
		t.Fatalf("rttvar should shrink with constant samples, got %d", r.RTTVar())
	}
	if rto := r.RTO(); rto < r.MinRTO || rto > r.MaxRTO {
		t.Fatalf("RTO %d outside bounds", rto)
	}
}

func TestRTTEstimatorIgnoresNegative(t *testing.T) {
	r := NewRTTEstimator()
	r.Sample(-5)
	if r.Initialized() {
		t.Fatal("negative sample should be ignored")
	}
}

func TestRTOClamping(t *testing.T) {
	r := NewRTTEstimator()
	r.Sample(1) // tiny RTT -> raw RTO below MinRTO
	if r.RTO() != r.MinRTO {
		t.Fatalf("RTO = %d, want MinRTO", r.RTO())
	}
	r2 := NewRTTEstimator()
	r2.Sample(10e9) // huge RTT -> clamped to MaxRTO
	if r2.RTO() != r2.MaxRTO {
		t.Fatalf("RTO = %d, want MaxRTO", r2.RTO())
	}
}
