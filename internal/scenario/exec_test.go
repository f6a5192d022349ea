package scenario

import (
	"strings"
	"testing"
	"time"
)

// quickSpec is a small scenario that exercises impairments, a fault,
// and both assertion families while converging in well under a second
// of workload.
func quickSpec(seed int64) *Spec {
	return &Spec{
		Name:     "quick",
		Seed:     seed,
		Duration: 30 * sec,
		Topology: Topology{Clients: 2},
		Workload: Workload{Kind: WorkStream, Conns: 2, Transfers: 2, TransferBytes: 32 << 10},
		Impairments: []Impairment{
			{At: 0, Kind: ImpLoss, Rate: 0.02},
			{At: 300 * ms, Kind: ImpClearLoss},
		},
		Faults: []FaultEvent{{At: 100 * ms, Kind: FaultSlowStall, Target: "server", For: 250 * ms}},
		Assert: Assertions{Intact: true, AllComplete: true, DropCauses: map[string]uint64{"bad_desc": 0}},
	}
}

// TestRunStream: a stream scenario completes with every assertion green
// and a coherent report.
func TestRunStream(t *testing.T) {
	rep, err := Run(quickSpec(5), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Workload.Completed != rep.Workload.Expected || rep.Workload.Expected != 8 {
		t.Fatalf("completed %d/%d", rep.Workload.Completed, rep.Workload.Expected)
	}
	if len(rep.Timeline) != 3 {
		t.Fatalf("timeline recorded %d events, want 3", len(rep.Timeline))
	}
	for _, op := range rep.Workload.Ops {
		if len(op.SHA) != 64 {
			t.Fatalf("op missing payload digest: %+v", op)
		}
	}
	if rep.Server.Established == 0 {
		t.Fatal("server snapshot empty")
	}
}

// TestRunThroughLinkModel: SHA-256-verified transfers through the netem
// link model with a shallow ECN-marking queue, so segments sit in link
// queues and timers between their sender's hand-off and their
// receiver's release, some are dropped at the queue and some are
// CE-marked by clone. Under -race the packet pool poisons what it takes
// back: a packet recycled while the link still held it would fail the
// digest (or panic in a contained core, and the run would not finish).
func TestRunThroughLinkModel(t *testing.T) {
	spec := &Spec{
		Name:     "link-quick",
		Seed:     11,
		Duration: 30 * sec,
		Topology: Topology{Clients: 2},
		Link:     &LinkSpec{RateMbps: 200, QueuePkts: 12, Delay: Duration(200 * time.Microsecond), ECNPkts: 8},
		Workload: Workload{Kind: WorkStream, Conns: 2, Transfers: 2, TransferBytes: 128 << 10},
		Assert:   Assertions{Intact: true, AllComplete: true, DropCauses: map[string]uint64{"bad_desc": 0}},
	}
	rep, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	t.Logf("fabric: %+v", rep.Fabric)
	if rep.Fabric.CEMarks == 0 {
		t.Fatalf("no CE marks: the link queue never reached its threshold (%+v)", rep.Fabric)
	}
	for _, sv := range append(rep.Clients, rep.Server) {
		if sv.CorePanics != 0 {
			t.Fatalf("%s: %d contained core panics", sv.Name, sv.CorePanics)
		}
	}
}

// TestRunRPC: the echo workload with connection churn completes.
func TestRunRPC(t *testing.T) {
	spec := &Spec{
		Name:     "rpc-quick",
		Seed:     9,
		Duration: 30 * sec,
		Workload: Workload{Kind: WorkRPC, Conns: 2, Calls: 30, MsgBytes: 128, CallsPerConn: 10},
		Assert:   Assertions{Intact: true, AllComplete: true},
	}
	rep, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Workload.Completed != 2*30 {
		t.Fatalf("completed %d, want 60", rep.Workload.Completed)
	}
}

// TestRunDeterminism is the seed-determinism regression: running the
// same spec twice must produce byte-identical deterministic report
// projections — same scheduled timeline, same payload digests, same
// completion set, same verdicts.
func TestRunDeterminism(t *testing.T) {
	a, err := Run(quickSpec(42), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickSpec(42), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	da, db := a.Deterministic(), b.Deterministic()
	if string(da) != string(db) {
		t.Fatalf("same seed diverged:\nrun1: %s\nrun2: %s", da, db)
	}
	if a.DeterministicDigest() != b.DeterministicDigest() {
		t.Fatal("digests differ for identical projections")
	}
	// A different seed must actually change the reproducible content
	// (payload digests derive from it).
	c, err := Run(quickSpec(43), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.DeterministicDigest() == a.DeterministicDigest() {
		t.Fatal("different seeds produced identical projections (seed not wired through)")
	}
}

// TestRunRejectsInvalidSpec: execution refuses an unvalidated spec.
func TestRunRejectsInvalidSpec(t *testing.T) {
	bad := &Spec{Name: "bad", Workload: Workload{Kind: "nope"}}
	if _, err := Run(bad, RunOptions{}); err == nil {
		t.Fatal("invalid spec executed")
	}
}

// TestRunDurationCap: a workload that cannot finish inside the cap is
// cut off and reported as failed, not hung.
func TestRunDurationCap(t *testing.T) {
	spec := &Spec{
		Name:     "capped",
		Seed:     1,
		Duration: 400 * ms,
		Link:     &LinkSpec{RateMbps: 1, QueuePkts: 16}, // 1 Mbit/s: the 4 MiB workload cannot finish
		Workload: Workload{Kind: WorkStream, Conns: 1, Transfers: 1, TransferBytes: 4 << 20},
		Assert:   Assertions{AllComplete: true},
	}
	start := time.Now()
	rep, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 20*time.Second {
		t.Fatalf("capped run took %v", time.Since(start))
	}
	if rep.Pass {
		t.Fatal("impossible workload passed")
	}
	found := false
	for _, a := range rep.Assertions {
		if a.Name == "within-duration" && !a.Pass {
			found = true
		}
	}
	if !found {
		t.Fatalf("cap not surfaced in assertions:\n%s", rep.Summary())
	}
}

// TestRunReportSummary: the narration and summary render without
// placeholder junk.
func TestRunReportSummary(t *testing.T) {
	var log strings.Builder
	rep, err := Run(quickSpec(7), RunOptions{Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Summary(), "quick") || !strings.Contains(rep.Summary(), "PASS") {
		t.Fatalf("summary: %s", rep.Summary())
	}
	if !strings.Contains(log.String(), "slowpath-stall") {
		t.Fatalf("narration missing timeline events:\n%s", log.String())
	}
}
