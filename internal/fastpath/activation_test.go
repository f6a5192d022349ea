package fastpath

import (
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestTransmitActivatesParkedFlow: bytes to send on a parked flow clear
// its flag and queue it toward the slow path exactly once — including
// when the peer's window is closed and nothing can actually be sent,
// which is the case the persist timer needs to hear about.
func TestTransmitActivatesParkedFlow(t *testing.T) {
	for _, window := range []uint16{64, 0} {
		e, nic := testEngine()
		f := testFlow(e)
		f.Window = window
		f.Parked = true

		e.transmit(e.cores[0], f) // nothing buffered: not an edge
		if !f.Parked || e.ActivationsLen() != 0 {
			t.Fatalf("window %d: idle transmit activated the flow", window)
		}

		f.TxBuf.Write(make([]byte, 3000))
		e.transmit(e.cores[0], f)
		if f.Parked {
			t.Fatalf("window %d: flag still set after the idle→busy edge", window)
		}
		if got, ok := e.TakeActivation(); !ok || got != f {
			t.Fatalf("window %d: activation ring holds %v, %v", window, got, ok)
		}
		if sent := len(nic.out) > 0; sent != (window > 0) {
			t.Fatalf("window %d: %d packets out", window, len(nic.out))
		}

		f.TxBuf.Write(make([]byte, 100))
		e.transmit(e.cores[0], f) // already active: no second push
		if e.ActivationsLen() != 0 {
			t.Fatalf("window %d: active flow pushed again", window)
		}
	}
}

// TestActivationRingOverflowKeepsFlag: a refused push must leave the
// flow consistently parked and tell the slow path to go looking.
func TestActivationRingOverflowKeepsFlag(t *testing.T) {
	e, _ := testEngine()
	f := testFlow(e)
	for e.activations.Enqueue(f) {
	}
	f.Parked = true
	e.ActivateFlow(f)
	if !f.Parked {
		t.Fatal("flag cleared although the ring refused the flow")
	}
	if !e.TakeActivationOverflow() || e.TakeActivationOverflow() {
		t.Fatal("overflow mark not raised exactly once")
	}
}

// lockedNIC is a stubNIC safe to read while a core goroutine transmits.
type lockedNIC struct {
	mu  sync.Mutex
	out int
}

func (n *lockedNIC) Output(*protocol.Packet) { n.mu.Lock(); n.out++; n.mu.Unlock() }
func (n *lockedNIC) sent() int               { n.mu.Lock(); defer n.mu.Unlock(); return n.out }

// TestBlockRecheckSeesContextTx drives the lost-wakeup interleaving on
// the context TX queues: a descriptor pushed after the core's last
// drainCtxTx but before it publishes asleep gets no wake (PushTxCmd saw
// asleep == false), so only the block path's own re-check can keep it
// from waiting out the 100ms block timeout.
func TestBlockRecheckSeesContextTx(t *testing.T) {
	nic := &lockedNIC{}
	e := NewEngine(nic, Config{
		LocalIP:      protocol.MakeIPv4(10, 0, 0, 1),
		LocalMAC:     protocol.MACForIPv4(protocol.MakeIPv4(10, 0, 0, 1)),
		MaxCores:     1,
		BlockTimeout: time.Millisecond,
	})
	f := testFlow(e)
	ctx := NewContext(0, 1, 64)
	e.RegisterContext(ctx)
	f.Context = 0

	var once sync.Once
	pushed := make(chan time.Time, 1)
	e.beforeSleep = func(int) {
		once.Do(func() {
			f.Lock()
			f.TxBuf.Write(make([]byte, 100))
			f.Unlock()
			if !e.PushTxCmd(ctx, TxCmd{Op: OpTx, Flow: f, Bytes: 100}) {
				t.Error("PushTxCmd refused")
			}
			pushed <- time.Now()
		})
	}
	e.Start()
	defer e.Stop()

	var at time.Time
	select {
	case at = <-pushed:
	case <-time.After(2 * time.Second):
		t.Fatal("core never reached its block path")
	}
	for nic.sent() == 0 {
		if time.Since(at) > 50*time.Millisecond {
			t.Fatalf("descriptor pushed in the sleep window still unsent after %v: lost wakeup", time.Since(at))
		}
		time.Sleep(200 * time.Microsecond)
	}
}
