package flowstate

import (
	"math"
	"sync/atomic"
)

// bucketBurst is every rate bucket's token cap, in bytes.
const bucketBurst = 64 << 10

// Bucket is a per-flow token bucket enforcing the rate the slow path
// configured (§3.1: "the fast path fills a per-flow bucket ... and
// drains these buckets depending on a slow path configured
// per-connection rate-limit"). Tokens are bytes; refill is computed
// lazily from elapsed nanoseconds. A rate of 0 means unlimited. It is
// flow state: Flow holds it by value, and the zero Bucket is unlimited.
type Bucket struct {
	rateBps atomic.Uint64 // bytes per second (bits would overflow sooner)
	tokens  float64       // owned by the fast-path core holding the flow lock
	lastNs  int64
	primed  bool // lastNs has been initialized
}

// SetRate sets the enforced rate in bytes/second (0 = unlimited). Safe
// to call from the slow path concurrently with fast-path draining.
func (b *Bucket) SetRate(bytesPerSec float64) {
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	b.rateBps.Store(math.Float64bits(bytesPerSec))
}

// Rate returns the configured rate (bytes/second; 0 = unlimited).
func (b *Bucket) Rate() float64 { return math.Float64frombits(b.rateBps.Load()) }

// refill adds tokens for the time since the last refill. Must be called
// with the flow lock held.
func (b *Bucket) refill(nowNs int64) {
	rate := b.Rate()
	if !b.primed {
		b.primed = true
		b.lastNs = nowNs
	}
	dt := nowNs - b.lastNs
	if dt <= 0 {
		// A core whose batch clock is behind the last refill's: nothing
		// has accrued, and the refill clock never runs backwards (that
		// would mint the same interval's tokens twice).
		return
	}
	b.lastNs = nowNs
	if rate == 0 {
		return
	}
	b.tokens += rate * float64(dt) / 1e9
	if b.tokens > bucketBurst {
		b.tokens = bucketBurst
	}
}

// Take attempts to consume n bytes of tokens at time nowNs. With an
// unlimited rate it always succeeds. Must be called with the flow lock
// held.
func (b *Bucket) Take(nowNs int64, n int) bool {
	if b.Rate() == 0 {
		return true
	}
	b.refill(nowNs)
	if b.tokens < float64(n) {
		return false
	}
	b.tokens -= float64(n)
	return true
}

// NextAvailable returns the absolute time (ns) when n bytes of tokens
// will be available, for scheduling a retry. Must be called with the
// flow lock held, after a failed Take.
func (b *Bucket) NextAvailable(nowNs int64, n int) int64 {
	rate := b.Rate()
	if rate == 0 {
		return nowNs
	}
	deficit := float64(n) - b.tokens
	if deficit <= 0 {
		return nowNs
	}
	return nowNs + int64(deficit/rate*1e9) + 1
}
