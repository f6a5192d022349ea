package scenario

import (
	"errors"
	"reflect"
	"testing"
)

// TestLibraryRegistry: the library is exactly the eleven shipped
// scenarios, every one builds a valid spec, and lookups are typed.
func TestLibraryRegistry(t *testing.T) {
	want := []string{
		"app-crash-churn", "churn-storm", "flaky-rack", "incast-storm",
		"memory-squeeze", "rolling-core-failure", "silent-peer",
		"slowpath-outage-churn", "syn-flood", "wan", "zero-window-stall",
	}
	if names := Names(); !reflect.DeepEqual(names, want) {
		t.Fatalf("library lists %v, want %v", names, want)
	}
	for _, w := range want {
		spec, err := Lookup(w)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", w, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("library scenario %q invalid: %v", w, err)
		}
		if spec.Description == "" {
			t.Fatalf("library scenario %q has no description", w)
		}
	}
	if _, err := Lookup("does-not-exist"); !errors.Is(err, ErrUnknownScenario) {
		t.Fatalf("unknown lookup: %v", err)
	}
	// Lookup builds a fresh spec each time: mutating one run's spec must
	// not poison the registry.
	a, _ := Lookup("wan")
	a.Seed = 999999
	b, _ := Lookup("wan")
	if b.Seed == 999999 {
		t.Fatal("registry leaked a mutated spec")
	}
}

// TestLibraryFlakyRack runs the burst-loss + link-flap scenario end to
// end: connection churn through correlated loss, all bytes intact.
func TestLibraryFlakyRack(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario")
	}
	spec, err := Lookup("flaky-rack")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("flaky-rack failed:\n%s", rep.Summary())
	}
}

// TestLibraryRollingCoreFailure runs the two-core-crash scenario end to
// end: both failures detected, flows migrated, content intact.
func TestLibraryRollingCoreFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario")
	}
	spec, err := Lookup("rolling-core-failure")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("rolling-core-failure failed:\n%s", rep.Summary())
	}
	if rep.Server.CoreFailures < 2 {
		t.Fatalf("core failures = %d, want >= 2", rep.Server.CoreFailures)
	}
}
