package scenario

import (
	"testing"
	"time"

	tas "repro"
)

// TestLibraryZeroWindowStall runs the receiver-limited wedge end to
// end: senders survive a 1s zero-window stall on persist probes alone
// and every byte arrives intact with no aborts.
func TestLibraryZeroWindowStall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario")
	}
	spec, err := Lookup("zero-window-stall")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("zero-window-stall failed:\n%s", rep.Summary())
	}
	probes := rep.Server.PersistProbes
	for _, c := range rep.Clients {
		probes += c.PersistProbes
	}
	if probes == 0 {
		t.Fatal("no persist probes sent: the stall never engaged the persist timer")
	}
}

// TestLibrarySilentPeer runs the mid-stream blackhole end to end: the
// server's keepalives — not the reaper, not idle-reclaim — give the
// dead peer up, and the workload completes after the link heals.
func TestLibrarySilentPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario")
	}
	spec, err := Lookup("silent-peer")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("silent-peer failed:\n%s", rep.Summary())
	}
}

// TestZeroWindowNeverReopens is the budget-side twin of the library's
// zero-window-stall: the first accepted connection's handler never
// resumes reading, so the sender's persist budget runs dry and the
// flow must end in a peer-dead verdict. The retry lands on a healthy
// handler (StallFirstConnOnly) and the transfer still completes, so
// the same run proves both the abort and the recovery.
func TestZeroWindowNeverReopens(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario")
	}
	spec := &Spec{
		Name: "zero-window-never-reopens",
		Description: "The first connection's server handler wedges forever: the sender's " +
			"persist budget (4 probes at 50ms base) exhausts into a peer-dead abort, " +
			"the worker redials onto a healthy handler, and the transfer completes.",
		Seed:     101,
		Duration: 45 * sec,
		Topology: Topology{Config: tas.Config{
			RxBufSize: 16 << 10, PersistRTO: 50 * time.Millisecond, MaxPersistProbes: 4,
		}},
		Workload: Workload{Kind: WorkStream, Conns: 1, Transfers: 1, TransferBytes: 256 << 10,
			ServerStall: 40 * sec, StallFirstConnOnly: true},
		Assert: Assertions{Intact: true, AllComplete: true, MinPersistProbes: 3, MinPeerDead: 1, NoReaperFired: true},
	}
	rep, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("zero-window-never-reopens failed:\n%s", rep.Summary())
	}
	var zw uint64
	for _, c := range rep.Clients {
		zw += c.PeerDeadZeroWindow
	}
	if zw == 0 {
		t.Fatal("the sender never declared the wedged peer dead via the persist budget")
	}
	if rep.Workload.Retries == 0 {
		t.Fatal("the worker never retried: the wedge did not force a reconnect")
	}
}
