package libtas

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/shmring"
)

// waitRig is a connection with no network under it: the test plays the
// fast path, depositing payload and posting the event itself, so that
// nothing but libtas's wait and fastpath.Context's wake runs (and
// allocates) between a blocked Recv and its return.
type waitRig struct {
	cn   *Conn
	kick chan struct{}
	msg  [64]byte
}

type nullNIC struct{}

func (nullNIC) Output(*protocol.Packet) {}

func newWaitRig(tb testing.TB) *waitRig {
	ip := protocol.MakeIPv4(10, 0, 0, 1)
	eng := fastpath.NewEngine(nullNIC{}, fastpath.Config{LocalIP: ip, MaxCores: 1}) // never started
	ctx := &Context{stack: &Stack{Eng: eng}, fp: fastpath.NewContext(0, 1, 64)}
	r := &waitRig{kick: make(chan struct{})}
	r.cn = &Conn{ctx: ctx, flow: &flowstate.Flow{
		RxBuf: shmring.NewPayloadBuffer(1 << 20), // a window update (one packet) per 16384 rounds
		TxBuf: shmring.NewPayloadBuffer(1 << 10),
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the "fast path"
		defer wg.Done()
		for range r.kick {
			for ctx.fp.Sleepers() == 0 {
				runtime.Gosched() // Recv must be blocked, not merely about to poll
			}
			r.cn.flow.Lock()
			r.cn.flow.RxBuf.Write(r.msg[:])
			r.cn.flow.Unlock()
			ctx.fp.PostEvent(0, fastpath.Event{Kind: fastpath.EvData})
		}
	}()
	tb.Cleanup(func() { close(r.kick); wg.Wait() })
	return r
}

// round is one blocked Recv woken by one PostEvent.
func (r *waitRig) round(tb testing.TB, buf []byte) {
	r.kick <- struct{}{}
	if n, err := r.cn.Recv(buf, time.Second); n != len(r.msg) || err != nil {
		tb.Fatalf("Recv = %d, %v", n, err)
	}
}

// TestWaitWakeAllocs pins the application half of the doorbell: a
// blocking wait with a deadline reuses a pooled timer, and a wake
// signals per-waiter channels instead of closing and re-making one.
func TestWaitWakeAllocs(t *testing.T) {
	r := newWaitRig(t)
	buf := make([]byte, 256)
	if avg := testing.AllocsPerRun(500, func() { r.round(t, buf) }); avg > 1 {
		t.Fatalf("blocked Recv ↔ PostEvent allocates %v objects per round trip, want at most 1", avg)
	}
}

// TestWaitDeadline: a wait still times out on time with a recycled
// timer — including one whose previous use ended with the timer firing —
// and a timer left armed by a woken wait never wakes a later one early.
func TestWaitDeadline(t *testing.T) {
	r := newWaitRig(t)
	buf := make([]byte, 256)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := r.cn.Recv(buf, 20*time.Millisecond); err != ErrTimeout {
			t.Fatalf("Recv on a silent connection: %v, want ErrTimeout", err)
		}
		if d := time.Since(start); d < 20*time.Millisecond || d > 200*time.Millisecond {
			t.Fatalf("20ms deadline fired after %v", d)
		}
		r.round(t, buf) // a woken wait between two timed-out ones
	}
	if n := r.cn.ctx.fp.Sleepers(); n != 0 {
		t.Fatalf("%d waiters still registered", n)
	}
}

func BenchmarkWaitWake(b *testing.B) {
	r := newWaitRig(b)
	buf := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round(b, buf)
	}
}
