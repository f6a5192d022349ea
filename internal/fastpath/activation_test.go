package fastpath

import "testing"

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

		e.transmitFlow(e.cores[0], f) // nothing buffered: not an edge
		if !f.Parked || e.ActivationsLen() != 0 {
			t.Fatalf("window %d: idle transmit activated the flow", window)
		}

		f.TxBuf.Write(make([]byte, 3000))
		e.transmitFlow(e.cores[0], f)
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
		e.transmitFlow(e.cores[0], f) // already active: no second push
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
