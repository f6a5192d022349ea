// Package tcp provides protocol mechanics shared by the TAS fast path,
// slow path, and the baseline transport simulations: modular sequence-
// number arithmetic, RTT estimation (RFC 6298 plus the paper's
// timestamp-based estimator), and MSS segmentation helpers.
package tcp

// Sequence-number arithmetic is modular in 2^32. A sequence a is "before"
// b if the signed distance from a to b is positive, which is well defined
// as long as the compared values are within 2^31 of each other — always
// true for in-window comparisons.

// SeqLT reports whether sequence a is strictly before b.
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports whether sequence a is at or before b.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// SeqGT reports whether sequence a is strictly after b.
func SeqGT(a, b uint32) bool { return int32(a-b) > 0 }

// SeqGEQ reports whether sequence a is at or after b.
func SeqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// SeqDiff returns the signed distance from b to a (a - b), valid when the
// two are within 2^31 of each other.
func SeqDiff(a, b uint32) int32 { return int32(a - b) }

// SeqMax returns the later of two sequence numbers.
func SeqMax(a, b uint32) uint32 {
	if SeqGT(a, b) {
		return a
	}
	return b
}

// SeqMin returns the earlier of two sequence numbers.
func SeqMin(a, b uint32) uint32 {
	if SeqLT(a, b) {
		return a
	}
	return b
}

// SeqInWindow reports whether seq falls within [start, start+size).
func SeqInWindow(seq, start uint32, size uint32) bool {
	return SeqGEQ(seq, start) && SeqLT(seq, start+size)
}
