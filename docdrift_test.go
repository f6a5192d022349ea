package tas

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/flowstate"
	"repro/internal/resource"
)

// TestReadmeConfigTables checks README.md's `| Config | Default |
// Governs |` tables against the one declaration of each knob: every row
// names real config.Config or resource.Limits fields, and its Default is
// what Fill (and, for the governor's limits, resource.New) makes of a
// zero value. A cell reads as its leading value — "0 (off)" is 0 — and a
// row naming several fields gives one value for all or one per field,
// separated by " / ".
func TestReadmeConfigTables(t *testing.T) {
	var cfg Config
	cfg.Fill()
	filled := reflect.ValueOf(cfg)
	limits := reflect.ValueOf(resource.New(cfg.Limits).Limits())

	checked := 0
	for _, row := range docTableRows(t, "README.md", "| Config | Default | Governs |") {
		names := regexp.MustCompile("`([A-Za-z0-9.]+)`").FindAllStringSubmatch(row[0], -1)
		defaults := strings.Split(row[1], " / ")
		if len(names) == 0 || (len(defaults) != 1 && len(defaults) != len(names)) {
			t.Errorf("row %q: %d fields, %d defaults", row[0], len(names), len(defaults))
			continue
		}
		for i, m := range names {
			v := filled
			name := m[1]
			if rest, ok := strings.CutPrefix(name, "Limits."); ok {
				v, name = limits, rest
			}
			field := v.FieldByName(name)
			if !field.IsValid() {
				t.Errorf("README names %s, which is not a config field", m[1])
				continue
			}
			cell := defaults[min(i, len(defaults)-1)]
			want, err := parseDocValue(cell, field.Type())
			if err != nil {
				t.Errorf("%s: default %q: %v", m[1], cell, err)
				continue
			}
			if got := field.Interface(); got != want {
				t.Errorf("%s: README says %q, Fill gives %v", m[1], cell, got)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no config rows found in README.md")
	}
}

// TestDocMetricSeries checks every backticked tas_… series that README.md
// and DESIGN.md name against the exposition's golden list: the series
// exists, and so does every label value the docs quote for it. Brace
// lists in a name expand (tas_pool_{used,cap} is two series).
func TestDocMetricSeries(t *testing.T) {
	golden, err := os.ReadFile("testdata/metric_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]string{} // name -> label sets
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, labels, _ := strings.Cut(strings.Fields(line)[0], "{")
		series[name] = append(series[name], labels)
	}
	ref := regexp.MustCompile("`(tas_[a-z0-9_{},]*[a-z0-9_}])(\\{[^}]*\\})?`")
	label := regexp.MustCompile(`[a-z_]+="[^"]*"`)
	n := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(text), -1) {
			name, labels := m[1], m[2]
			if i := strings.LastIndex(name, "{"); i >= 0 && !strings.Contains(name[i:], ",") {
				name, labels = name[:i], name[i:] // a trailing {label}
			}
			for _, s := range expandBraces(name) {
				n++
				sets, ok := series[s]
				if !ok {
					t.Errorf("%s names %s, which is not in the golden series list", doc, s)
					continue
				}
				for _, l := range label.FindAllString(labels, -1) {
					if !strings.Contains(strings.Join(sets, " "), l) {
						t.Errorf("%s names %s{%s}, which no golden series carries", doc, s, l)
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no tas_ series found in the docs")
	}
}

// TestDocFlowSize checks the struct size EXPERIMENTS.md's table3
// paragraph quotes against the Flow the fast path allocates.
func TestDocFlowSize(t *testing.T) {
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`the Go struct is (\d+) bytes`).FindSubmatch(text)
	if m == nil {
		t.Fatal("EXPERIMENTS.md quotes no Go struct size for table3")
	}
	if got := unsafe.Sizeof(flowstate.Flow{}); string(m[1]) != strconv.Itoa(int(got)) {
		t.Errorf("EXPERIMENTS.md says the Go struct is %s bytes; unsafe.Sizeof(flowstate.Flow{}) is %d", m[1], got)
	}
}

// TestDocGoNames checks that every backticked pkg.Name or
// pkg.Type.Member in README.md, DESIGN.md and EXPERIMENTS.md, with pkg a
// package of this module, names something declared in that package: a
// top-level declaration, a method (pkg.Method names one without its
// type), a struct field, or a test function. Dotted snake_case names are
// scoreboard metrics, not Go, and a table headed "What went" records
// deleted code.
func TestDocGoNames(t *testing.T) {
	decls := map[string]bool{} // "pkg.Name", "pkg.Type.Member"
	pkgs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasPrefix(path, "benchmark/") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		pkgs[pkg] = true
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[pkg+"."+d.Name.Name] = true
				if d.Recv != nil {
					decls[pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						decls[pkg+"."+spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									decls[pkg+"."+spec.Name.Name+"."+id.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							decls[pkg+"."+id.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	delete(pkgs, "main")
	ref := regexp.MustCompile("`([a-z][a-z0-9]*)((?:\\.[A-Za-z][A-Za-z0-9]*){1,2})(?:\\(\\))?`")
	n := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var live []string
		went := false
		for _, line := range strings.Split(string(text), "\n") {
			went = strings.HasPrefix(line, "| What went |") || went && strings.HasPrefix(line, "|")
			if !went {
				live = append(live, line)
			}
		}
		for _, m := range ref.FindAllStringSubmatch(strings.Join(live, "\n"), -1) {
			if !pkgs[m[1]] {
				continue
			}
			n++
			if !decls[m[1]+m[2]] {
				t.Errorf("%s names %s%s, which is not declared", doc, m[1], m[2])
			}
		}
	}
	if n == 0 {
		t.Fatal("no pkg.Name references found in the docs")
	}
}

// recvName returns the type name in a method receiver: T, *T, T[P].
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// docTableRows returns the first two cells of every row of every table
// in file whose header line is header.
func docTableRows(t *testing.T, file, header string) [][2]string {
	t.Helper()
	text, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][2]string
	in := false
	for _, line := range strings.Split(string(text), "\n") {
		switch {
		case strings.TrimSpace(line) == header:
			in = true
		case !in:
		case !strings.HasPrefix(line, "|"):
			in = false
		case !strings.HasPrefix(line, "|---"):
			cells := strings.Split(line, "|")
			rows = append(rows, [2]string{strings.TrimSpace(cells[1]), strings.TrimSpace(cells[2])})
		}
	}
	return rows
}

// parseDocValue reads a table cell's leading value as a value of type
// typ: a duration ("200ms") or an integer ("8").
func parseDocValue(cell string, typ reflect.Type) (any, error) {
	word, _, _ := strings.Cut(strings.TrimSpace(cell), " ")
	if typ == reflect.TypeOf(time.Duration(0)) {
		return time.ParseDuration(word)
	}
	n, err := strconv.ParseInt(word, 10, 64)
	if err != nil {
		return nil, err
	}
	return reflect.ValueOf(n).Convert(typ).Interface(), nil
}

// expandBraces expands one brace list per name part: a_{b,c}_d is a_b_d
// and a_c_d.
func expandBraces(s string) []string {
	i := strings.Index(s, "{")
	if i < 0 {
		return []string{s}
	}
	j := i + strings.Index(s[i:], "}")
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expandBraces(s[:i]+alt+s[j+1:])...)
	}
	return out
}
