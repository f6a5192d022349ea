package tas

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow names the declarations that nothing outside a
// _test.go file uses and that stay anyway, each with the reason. A key is
// the package's directory ("tas" for the root), a dot, and the name, with
// methods as Type.Method. Exported names of the root package need no
// entry: they are the public API, whose callers live outside this module.
var deadExportAllow = map[string]string{
	// Accessors: a test reads live state through them.
	"internal/congestion.NewReno.InSlowStart":   "accessor: congestion_test.go checks the slow-start exit",
	"internal/congestion.RateDCTCP.InSlowStart": "accessor: congestion_test.go checks the slow-start exit",
	"internal/congestion.RateFromWindow.Window": "accessor: ratefromwindow_test.go reads the wrapped window",
	"internal/congestion.WindowDCTCP.Alpha":     "accessor: congestion_test.go reads the ECN fraction",
	"internal/cpumodel.Core.QueueDelay":         "accessor: TestCoreQueueDelay reads a core's backlog",
	"internal/fabric.NIC.IP":                    "accessor: fabric_test.go reads the attachment address",
	"internal/fastpath.Context.Sleepers":        "accessor: libtas wait_test.go counts blocked goroutines",
	"internal/fastpath.Engine.CoreExited":       "accessor: core-failure tests wait for a core's goroutine to exit",
	"internal/fastpath.Engine.CorePanics":       "accessor: core-failure tests count contained panics",
	"internal/faultinject.Injector.Fired":       "accessor: faultinject_test.go counts fired faults",
	"internal/flowstate.RSS.FailedCount":        "accessor: rss_test.go counts excluded cores",
	"internal/netsim.Dumbbell.Bottleneck":       "accessor: netsim and transport tests observe the bottleneck queue",
	"internal/netsim.FatTree.HostByIP":          "accessor: netsim_test.go checks the fat-tree addressing",
	"internal/netsim.FatTree.NumSwitches":       "accessor: netsim_test.go checks the fat-tree shape",
	"internal/netsim.Port.MaxQueueLen":          "accessor: netsim_test.go reads the queue high-water mark",
	"internal/netsim.Port.Stats":                "accessor: netsim and transport tests read port counters",
	"internal/netsim.Star.DownPort":             "accessor: netsim_test.go observes a host's egress queue",
	"internal/resource.Governor.AppUsage":       "accessor: governor_test.go reads a context's quota use",
	"internal/resource.Governor.Limits":         "accessor: docdrift and scenario config tests read the filled limits",
	"internal/sim.Engine.Pending":               "accessor: sim_test.go counts scheduled events",
	"internal/slowpath.Slowpath.Down":           "accessor: recovery and faultinject tests observe a crashed slow path",
	"internal/stats.CDF.Max":                    "accessor: hist_test.go",
	"internal/stats.CDF.Min":                    "accessor: hist_test.go",
	"internal/stats.Histogram.Count":            "accessor: hist_test.go",
	"internal/stats.Histogram.Min":              "accessor: hist_test.go and baseline_test.go",
	"internal/stats.Running.Count":              "accessor: hist_test.go",
	"internal/stats.Running.Max":                "accessor: hist_test.go",
	"internal/stats.Running.Min":                "accessor: hist_test.go",
	"internal/stats.Running.Variance":           "accessor: hist_test.go",
	"internal/stats.Zipf.N":                     "accessor: rand_test.go",
	"internal/tcp.CookieJar.Epoch":              "accessor: cookie_test.go observes key rotation",
	"internal/tcp.CookieJar.Rotations":          "accessor: cookie_test.go observes key rotation",
	"internal/tcp.RTTEstimator.Initialized":     "accessor: seq_test.go",
	"internal/tcp.RTTEstimator.RTTVar":          "accessor: seq_test.go",
	"internal/telemetry.LogHist.Mean":           "accessor: loghist_test.go",
	"internal/telemetry.TimeSeries.Points":      "accessor: timeseries_test.go",
	"internal/trace.Writer.Count":               "accessor: pcap_test.go",
	"internal/transport.Endpoint.Receiver":      "accessor: transport_test.go reads a flow's receiver",
	"internal/transport.Receiver.Expected":      "accessor: transport_test.go reads the ack point",
	"internal/transport.Sender.Finished":        "accessor: transport_test.go waits for a sized flow",
	"internal/transport.Sender.Stats":           "accessor: transport_test.go reads sender counters",

	// Test seams: they exist for tests in more than one package.
	"internal/flowstate.Flow.TryLock":    "seam: inline_test.go holds a flow lock to force the deferred path",
	"internal/libtas.Conn.Flow":          "seam: appchaos_test.go reaches a connection's flow state",
	"internal/libtas.Conn.SendNoWait":    "seam: appchaos_test.go checks that a reaped context refuses a non-blocking send",
	"internal/netsim.NewDumbbell":        "seam: transport_test.go builds its bottleneck topology",
	"internal/protocol.OwnershipChecked": "seam: tests gate race-only packet-ownership assertions on it",
	"internal/sim.Engine.Run":            "seam: tests drain a simulation; experiments stop at a deadline with RunUntil",
	"internal/trace.Recorder":            "seam: trace tests capture packets in memory",
	"internal/trace.Recorder.Count":      "seam: see trace.Recorder",
	"internal/trace.Recorder.Records":    "seam: see trace.Recorder",
	"internal/trace.Recorder.Tap":        "seam: see trace.Recorder",

	// Build tags: the scan reads the default (non-race) build only.
	"internal/protocol.ownerReleased": "used by pool_race.go",
}

// declInterfaces are the standard-library interfaces a method can satisfy
// without any code here naming it: fmt prints a Stringer, container/heap
// drives heap.Interface, encoding/json calls a Marshaler. A method that
// completes one of these, error, the Unwrap method errors.Is walks, or an
// interface declared in this module, counts as used.
var declInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"container/heap", "Interface"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
}

// TestNoDeadExports keeps the module free of code that only its own tests
// call. It type-checks the non-test files of every package in the module,
// and the benchmark module (tests included) as one more consumer, and
// fails on any package-level declaration or method that nothing uses
// outside a _test.go file. A use inside the declaration itself (a
// recursive call, a type named in its own methods) does not count. Fix a
// hit by deleting the declaration, by moving it into a _test.go file when
// it is a test helper, or by an entry in deadExportAllow with its reason.
func TestNoDeadExports(t *testing.T) {
	s := &declScan{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: map[string]*scanned{},
	}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var module []*scanned
	for _, dir := range dirs {
		p, err := s.load(modulePath(dir), false)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			module = append(module, p)
		}
	}
	bench, err := s.load("repro/benchmark", true)
	if err != nil {
		t.Fatal(err)
	}

	homes := map[types.Object][]span{}
	var decls []declared
	for _, p := range module {
		decls = append(decls, p.declarations(homes)...)
	}
	used := map[types.Object]bool{}
	for _, p := range append(module, bench) {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if !inside(homes[obj], id.Pos()) {
				used[obj] = true
			}
		}
	}
	ifaces, err := s.interfaces(append(module, bench))
	if err != nil {
		t.Fatal(err)
	}

	var hits []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		switch {
		case used[d.obj], satisfies(d.obj, ifaces):
			if _, ok := deadExportAllow[d.key]; ok {
				t.Errorf("deadExportAllow lists %s, which has a caller now: drop the entry", d.key)
			}
		case d.pkg == "tas" && d.obj.Exported():
		case deadExportAllow[d.key] != "":
		default:
			hits = append(hits, s.fset.Position(d.obj.Pos()).String()+": "+d.key)
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Errorf("%s has no caller outside tests: delete it, move it into a _test.go file, or allow it with a reason", h)
	}
	for key := range deadExportAllow {
		if !seen[key] {
			t.Errorf("deadExportAllow lists %s, which is not declared", key)
		}
	}
}

type declScan struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*scanned // by import path; nil for a directory without Go files
}

type scanned struct {
	dir   string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

type declared struct {
	obj types.Object
	pkg string // directory, "tas" for the root
	key string
}

// span is the extent of a declaration; uses inside it are self-uses.
type span struct{ from, to token.Pos }

func modulePath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

// Import resolves this module's packages from source and the rest from
// the toolchain's export data.
func (s *declScan) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return s.std.Import(path)
	}
	p, err := s.load(path, false)
	if p == nil && err == nil {
		err = fmt.Errorf("%s has no Go files", path)
	}
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load type-checks the package at an import path of this module once,
// with its in-package tests when tests is set. It returns nil for a
// directory that has no non-test Go files.
func (s *declScan) load(path string, tests bool) (*scanned, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir := "."
	if path != "repro" {
		dir = filepath.FromSlash(strings.TrimPrefix(path, "repro/"))
	}
	bp, err := build.ImportDir(dir, 0)
	var none *build.NoGoError
	if errors.As(err, &none) {
		s.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if tests {
		names = append(names, bp.TestGoFiles...)
	}
	p := &scanned{dir: dir, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: s}
	if p.pkg, err = conf.Check(path, s.fset, p.files, p.info); err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	return p, nil
}

// declarations lists the package's top-level declarations and methods,
// recording each one's extent in homes. A method's extent also counts as
// its receiver type's.
func (p *scanned) declarations(homes map[types.Object][]span) []declared {
	pkg := filepath.ToSlash(p.dir)
	if pkg == "." {
		pkg = "tas"
	}
	var out []declared
	add := func(id *ast.Ident, key string, n ast.Node) {
		obj := p.info.Defs[id]
		if obj == nil || id.Name == "_" || id.Name == "init" || (id.Name == "main" && obj.Pkg().Name() == "main") {
			return
		}
		homes[obj] = append(homes[obj], span{n.Pos(), n.End()})
		out = append(out, declared{obj, pkg, pkg + "." + key})
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Name.Name, d)
					continue
				}
				recv := receiver(p.info.Defs[d.Name])
				add(d.Name, recv.Name()+"."+d.Name.Name, d)
				homes[recv] = append(homes[recv], span{d.Pos(), d.End()})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, id.Name, spec)
						}
					}
				}
			}
		}
	}
	return out
}

// interfaces gathers every interface type the module declares, plus
// declInterfaces, error and interface{ Unwrap() error }.
func (s *declScan) interfaces(pkgs []*scanned) ([]*types.Interface, error) {
	var out []*types.Interface
	for _, p := range pkgs {
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
	}
	for _, name := range declInterfaces {
		pkg, err := s.Import(name[0])
		if err != nil {
			return nil, err
		}
		out = append(out, pkg.Scope().Lookup(name[1]).Type().Underlying().(*types.Interface))
	}
	errType := types.Universe.Lookup("error").Type()
	out = append(out, errType.Underlying().(*types.Interface))
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)
	out = append(out, types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	return out, nil
}

// satisfies reports whether obj is a method that completes one of ifaces
// for its receiver type, so that a call through the interface reaches it.
func satisfies(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := receiver(fn).Type()
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// receiver returns the named type a method is declared on.
func receiver(obj types.Object) *types.TypeName {
	t := obj.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// origin maps a use of an instantiated generic function, method or field
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func inside(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.from <= pos && pos < s.to {
			return true
		}
	}
	return false
}
