package flowstate

import "testing"

func TestBucketTokenMath(t *testing.T) {
	b := new(Bucket)
	b.SetRate(1000) // 1000 B/s
	if !b.Take(0, 0) {
		t.Fatal("zero take")
	}
	// At t=1s, 1000 tokens accumulated.
	if !b.Take(1e9, 1000) {
		t.Fatal("take after refill should succeed")
	}
	if b.Take(1e9, 1) {
		t.Fatal("bucket should be empty")
	}
	// Next availability for 500 bytes: +0.5s.
	if next := b.NextAvailable(1e9, 500); next < 1.49e9 || next > 1.51e9 {
		t.Fatalf("next = %d", next)
	}
	// Burst cap: after a long idle period tokens clamp to bucketBurst.
	b2 := new(Bucket)
	b2.SetRate(1e9)
	b2.Take(0, 0) // prime the refill clock at t=0
	if b2.Take(1e9, bucketBurst+1) {
		t.Fatal("burst cap exceeded")
	}
	if !b2.Take(1e9, bucketBurst) {
		t.Fatal("full burst should be available")
	}
	// Batch clocks of two cores can disagree by an iteration: a take
	// stamped before the last refill mints nothing, then or later.
	b4 := new(Bucket)
	b4.SetRate(1000)
	b4.Take(2e9, 0)
	b4.Take(1e9, 0) // the other core's older clock
	if b4.Take(2e9, 1) {
		t.Fatal("a backwards clock step minted tokens")
	}
	// Unlimited.
	b3 := new(Bucket)
	if !b3.Take(0, 1<<30) {
		t.Fatal("unlimited bucket must always grant")
	}
	if b3.NextAvailable(5, 100) != 5 {
		t.Fatal("unlimited bucket next availability is now")
	}
}
