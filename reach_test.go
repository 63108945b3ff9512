package pioeval_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedAllowed lists the exported top-level names and methods under
// internal/ that no non-test file reaches, each with the reason it stays.
// The list may only shrink: TestExportedReachable fails when an unreached
// key is missing from it, and when a listed key is reached or gone. A
// method stays only if a root reproduction or claim test calls it, if it
// belongs to a listed test harness, or if a test compares another path
// against it.
var unreachedAllowed = map[string]string{
	// Test harnesses: test files are their only callers by design.
	"internal/golden.Check":         "golden-file harness of the command and transcript tests",
	"internal/leakcheck.Check":      "goroutine-leak harness of the des, serve and campaign tests",
	"internal/validate.RunProperty": "property harness that runs validate's checks on generated programs",
	// Failure.Regression renders a RunProperty failure as a Go test.
	"internal/validate.Failure.Regression": "RunProperty's reproducer; the harness's failures print it",

	// Reached by the root reproduction and benchmark tests, which
	// regenerate the paper's claims.
	"internal/core.Consumer":              "the IOWA consumer half; integration_test.go runs the source x consumer matrix",
	"internal/core.ProfileSource":         "a source of integration_test.go's source x consumer matrix and its profile-synthesis claim",
	"internal/core.ReplayConsumer":        "a consumer of integration_test.go's source x consumer matrix",
	"internal/core.SkeletonConsumer":      "a consumer of integration_test.go's source x consumer matrix",
	"internal/core.TraceSource":           "a source of integration_test.go's source x consumer matrix",
	"internal/des.NewResource":            "bench_ablation_test.go's standalone queueing ablation",
	"internal/monitor.NewFailureDetector": "bench_resilience_test.go's MTTD/MTTR claim",
	"internal/monitor.Watch":              "integration_test.go's metadata event stream",
	"internal/pfs.RoundRobin":             "LayoutPolicy's zero value; bench_ablation_test.go compares it with the other policies",
	"internal/predict.CompressionRatio":   "integration_test.go's grammar compression claim",
	"internal/predict.NewSeqPredictor":    "integration_test.go's I/O sequence prediction claim",
	"internal/sched.AvgWait":              "bench_ablation_test.go's scheduling ablation",
	"internal/stats.DetectPeriod":         "integration_test.go's periodic-phase claim",
	"internal/trace.ByLayer":              "bench_figs_test.go and the layer tests filter records by layer",

	// Methods the root reproduction and claim tests call.
	"internal/des.Resource.Acquire":          "bench_ablation_test.go's standalone queueing ablation holds the resource with it",
	"internal/des.StreamRNG.Uniform":         "bench_ablation_test.go's standalone queueing ablation draws its arrivals with it",
	"internal/faults.Scheduler.Errs":         "bench_resilience_test.go checks its fault schedule applied without errors",
	"internal/predict.SeqPredictor.Observe":  "integration_test.go's I/O sequence prediction claim trains the predictor",
	"internal/predict.SeqPredictor.Accuracy": "integration_test.go's I/O sequence prediction claim scores the predictor",
	"internal/profile.Profiler.IngestAll":    "integration_test.go profiles recorded traces with it",

	// The reference another path is checked against.
	"internal/monitor.FailureDetector.Incidents": "the incident log TestFailureDetectorMeasuresMTTDAndMTTR checks Report's MTTD and MTTR against",

	// Enumerators: deleting one renumbers or truncates its block.
	"internal/pfs.OpLookup":    "MetaOp's iota 0; deleting it renumbers every metadata op",
	"internal/posixio.ORdonly": "the zero open flag; deleting it shifts OWronly's iota",
	"internal/posixio.OWronly": "the open flag at iota 1; deleting it renumbers ORdwr and the flags after it",
	"internal/predict.Sigmoid": "an Activation the NN implements; TestActivations checks its apply and deriv",
	"internal/trace.LayerApp":  "Layer's iota 0; deleting it renumbers every layer and layerNames",
	"internal/trace.LayerPFS":  "the bottom Layer; deleting it shrinks numLayers and layerNames",

	// Figure 2's HDF layer has no other non-test importer than btio.go.
	"internal/workload.RunBTIO": "the only non-test caller of internal/hdf; deleting it orphans that layer",
}

// stdlibMethods are the exported method names the standard library
// calls through an interface, keyed by name with that interface. A scan
// by selector never sees those calls, so methods of these names count as
// reached.
var stdlibMethods = map[string]string{
	"Unwrap": "errors.Unwrap, errors.Is and errors.As",
	"Int63":  "rand.Source",
	"Uint64": "rand.Source64",
	"Seed":   "rand.Source",
}

// TestExportedReachable is a ratchet on dead exported API. Every
// exported top-level func, type, const and var declared in a non-test
// file under internal/ must be named by some non-test file of the module
// or of perfbench (both are entry points), outside its own declaration:
// as pkg.Name through the package's import, or as a bare identifier
// inside the declaring package. A method is part of its receiver type's
// declaration, so a type that only its own methods name is unreached.
//
// Every exported method declared under internal/, keyed
// "internal/pkg.Type.Method", must be selected as .Method by such a file
// outside the method's own body. The match is by name alone, so a call
// through an interface, or of another type's method of the same name,
// counts; methods named in stdlibMethods always count. The methods of a
// type on unreachedAllowed follow that type. The scan is syntactic
// (go/parser only), so a name that a local identifier or a struct field
// shadows counts as reached; it errs towards leniency.
func TestExportedReachable(t *testing.T) {
	decls, refs := scanModule(t, ".")
	missing, stale := unreached(decls, refs, unreachedAllowed)
	for _, key := range missing {
		t.Errorf("%s is exported but no non-test code names it: wire it to an entry point or delete it", key)
	}
	for _, key := range stale {
		t.Errorf("%s is on unreachedAllowed but is now reached or no longer exists: drop it from the list", key)
	}
}

// unreached returns, sorted, the declared keys that nothing reaches and
// allowed does not cover, and the keys of allowed that are reached or no
// longer declared.
func unreached(decls, refs map[string]bool, allowed map[string]string) (missing, stale []string) {
	for key := range decls {
		if refs[key] {
			continue
		}
		if _, ok := allowed[key]; ok {
			continue
		}
		if typ, name, ok := methodKey(key); ok {
			if _, ok := stdlibMethods[name]; ok {
				continue
			}
			if _, ok := allowed[typ]; ok {
				continue
			}
		}
		missing = append(missing, key)
	}
	for key := range allowed {
		if !decls[key] || refs[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	return missing, stale
}

// methodKey splits a method key "internal/pkg.Type.Method" into its type
// key "internal/pkg.Type" and the method name. ok is false for the key of
// a top-level name.
func methodKey(key string) (typ, name string, ok bool) {
	i := strings.LastIndexByte(key, '.')
	if i < 0 || strings.IndexByte(key, '.') == i {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

// TestReachScanner runs the scan on the fixture module under
// testdata/reach, one exported method per case of the method rule.
func TestReachScanner(t *testing.T) {
	decls, refs := scanModule(t, "testdata/reach")
	for key, want := range map[string]bool{
		"internal/lib.Square.Area":      true,  // called only through Shape
		"internal/lib.Square.Perimeter": false, // called by no one
		"internal/lib.Square.Grow":      false, // calls only itself
		"internal/lib.Wrapped.Unwrap":   false, // exempt, not reached
		"internal/lib.Harness.Run":      false, // covered by its type
	} {
		if !decls[key] {
			t.Errorf("%s: not declared", key)
		}
		if refs[key] != want {
			t.Errorf("%s: reached %v, want %v", key, refs[key], want)
		}
	}
	allowed := map[string]string{"internal/lib.Harness": "a fixture harness"}
	missing, stale := unreached(decls, refs, allowed)
	if want := []string{"internal/lib.Square.Grow", "internal/lib.Square.Perimeter"}; !reflect.DeepEqual(missing, want) {
		t.Errorf("reported %v, want %v", missing, want)
	}
	if len(stale) != 0 {
		t.Errorf("stale allowlist entries %v, want none", stale)
	}
}

// scanPkg is one directory's non-test files.
type scanPkg struct {
	name  string
	files []*ast.File
}

// scanModule parses every non-test .go file under root and returns the
// exported top-level names declared under internal/, keyed
// "internal/pkg.Name", with its exported methods, keyed
// "internal/pkg.Type.Method", and the set of those keys that some file
// reaches: a name named outside its own declaration, a method selected
// by name outside its own body.
func scanModule(t *testing.T, root string) (decls, refs map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*scanPkg{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		pkg := pkgs[dir]
		if pkg == nil {
			pkg = &scanPkg{name: f.Name.Name}
			pkgs[dir] = pkg
		}
		pkg.files = append(pkg.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	decls = map[string]bool{}
	for dir, pkg := range pkgs {
		if dir != "internal" && !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range pkg.files {
			eachDecl(f, func(n ast.Node, names []*ast.Ident) {
				for _, n := range names {
					if n.IsExported() {
						decls[dir+"."+n.Name] = true
					}
				}
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
					decls[ownMethod(n, dir)] = true
				}
			})
		}
	}

	refs = map[string]bool{}
	sels := map[string]map[string]bool{} // selected name -> keys of the methods whose bodies select it ("" outside any)
	for dir, pkg := range pkgs {
		for _, f := range pkg.files {
			imports := map[string]string{} // local name -> declaring dir
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				rel, ok := strings.CutPrefix(ip, "pioeval/")
				if !ok {
					continue
				}
				local := path.Base(rel)
				if p := pkgs[rel]; p != nil {
					local = p.name
				}
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = rel
			}
			markRefs(f, dir, imports, decls, refs, sels)
		}
	}
	for key := range decls {
		_, name, ok := methodKey(key)
		if !ok {
			continue
		}
		for site := range sels[name] {
			if site != key {
				refs[key] = true
				break
			}
		}
	}
	return decls, refs
}

// ownMethod is the key "dir.Type.Method" of the method n declares, or ""
// when n is not a method.
func ownMethod(n ast.Node, dir string) string {
	fd, ok := n.(*ast.FuncDecl)
	if !ok || fd.Recv == nil {
		return ""
	}
	return dir + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// markRefs records in refs every declared top-level key that file f, in
// package directory dir, names outside the key's own declaration; a
// method belongs to its receiver type's declaration. It records in sels
// every name f selects, with the key of the method whose body selects it
// ("" outside any method).
func markRefs(f *ast.File, dir string, imports map[string]string, decls, refs map[string]bool, sels map[string]map[string]bool) {
	var own map[string]bool // keys the top-level declaration being walked declares
	var method string       // key of the method being walked, or ""
	mark := func(key string) {
		if decls[key] && !own[key] {
			refs[key] = true
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// By name alone, even pkg.Name selects .Name.
			if sels[n.Sel.Name] == nil {
				sels[n.Sel.Name] = map[string]bool{}
			}
			sels[n.Sel.Name][method] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if rel, ok := imports[x.Name]; ok {
					mark(rel + "." + n.Sel.Name)
					return false
				}
			}
			// n.Sel is a field or method: only the operand can name a
			// top-level identifier.
			ast.Inspect(n.X, visit)
			return false
		case *ast.Field:
			// Field, parameter and result names declare, not refer.
			ast.Inspect(n.Type, visit)
			return false
		case *ast.Ident:
			mark(dir + "." + n.Name)
		}
		return true
	}
	eachDecl(f, func(n ast.Node, names []*ast.Ident) {
		own = map[string]bool{}
		for _, id := range names {
			own[dir+"."+id.Name] = true
		}
		method = ownMethod(n, dir)
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			ast.Inspect(n, visit)
			return
		}
		// Walk around fd.Name: a method's name is not a top-level name.
		if fd.Recv != nil {
			own[dir+"."+recvTypeName(fd.Recv.List[0].Type)] = true
			ast.Inspect(fd.Recv, visit)
		}
		ast.Inspect(fd.Type, visit)
		if fd.Body != nil {
			ast.Inspect(fd.Body, visit)
		}
	})
}

// recvTypeName is the name of a method receiver's base type: T for T,
// *T, T[P] and *T[P, Q].
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// eachDecl calls fn for every top-level declaration of f, with each spec
// of a type, const or var declaration taken on its own, and passes the
// names it declares. A method declares no top-level name.
func eachDecl(f *ast.File, fn func(n ast.Node, names []*ast.Ident)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				fn(d, nil)
			} else {
				fn(d, []*ast.Ident{d.Name})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fn(s, []*ast.Ident{s.Name})
				case *ast.ValueSpec:
					fn(s, s.Names)
				}
			}
		}
	}
}
