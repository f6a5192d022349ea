package scenario

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestVocabularyGolden pins what the scenario vocabulary means: for every
// library scenario, and for testdata/every_kind.json (every impairment,
// fault and attack kind, every Assertions field), the canonical JSON after
// Validate, the normalized schedule as (at, kind, target), and the
// ordered assertion rows evaluate emits. The rows come from an empty
// report with no workload run, so only their names are pinned. A
// refactor of how kinds are declared must leave this file byte-identical.
func TestVocabularyGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/every_kind.json")
	if err != nil {
		t.Fatal(err)
	}
	every, err := ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	specs := []*Spec{every}
	for _, n := range Names() {
		s, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}

	var b strings.Builder
	for _, s := range specs {
		fmt.Fprintf(&b, "== %s\n-- spec\n%s\n-- schedule\n", s.Name, s.JSON())
		r, err := newRun(s, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range r.normalize() {
			fmt.Fprintln(&b, strings.TrimSpace(fmt.Sprintf("%v %s %s", ev.at, ev.kind, ev.target)))
		}
		b.WriteString("-- assertions\n")
		for _, row := range r.evaluate(&Report{}, false, 0) {
			fmt.Fprintln(&b, row.Name)
		}
		r.teardown()
	}

	const golden = "testdata/vocabulary.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("vocabulary differs from %s at line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("vocabulary has %d lines, golden %d", len(gl), len(wl))
	}
}
