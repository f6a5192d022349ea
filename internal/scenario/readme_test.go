package scenario

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestReadmeScenarios holds README's "Scenarios" section to the code:
// its ```json example is a spec ParseSpec accepts, and its list of the
// library's scenarios is exactly Names().
func TestReadmeScenarios(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## Scenarios")
	if !ok {
		t.Fatal("README.md has no Scenarios section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	_, example, ok := strings.Cut(section, "```json\n")
	if !ok {
		t.Fatal("Scenarios section has no ```json example")
	}
	example, _, _ = strings.Cut(example, "```")
	if _, err := ParseSpec([]byte(example)); err != nil {
		t.Errorf("README's JSON example does not parse: %v", err)
	}

	_, list, ok := strings.Cut(section, "The library ships")
	if !ok {
		t.Fatal(`Scenarios section has no "The library ships" list`)
	}
	list, _, _ = strings.Cut(list, ")")
	var listed []string
	for _, m := range regexp.MustCompile("`([a-z0-9-]+)`").FindAllStringSubmatch(list, -1) {
		listed = append(listed, m[1])
	}
	sort.Strings(listed)
	if !reflect.DeepEqual(listed, Names()) {
		t.Errorf("README lists %v, the library is %v", listed, Names())
	}
}
