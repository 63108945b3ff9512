package pioeval_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedAllowed lists the exported top-level names under internal/
// that no non-test file names, each with the reason it stays. The list
// may only shrink: TestExportedReachable fails when an unreached name is
// missing from it, and when a listed name is reached or gone.
var unreachedAllowed = map[string]string{
	// Test harnesses: test files are their only callers by design.
	"internal/golden.Check":         "golden-file harness of the command and transcript tests",
	"internal/leakcheck.Check":      "goroutine-leak harness of the des, serve and campaign tests",
	"internal/validate.RunProperty": "property harness that runs validate's checks on generated programs",

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

// TestExportedReachable is a ratchet on dead exported API. Every
// exported top-level func, type, const and var declared in a non-test
// file under internal/ must be named by some non-test file of the module
// or of perfbench (both are entry points), outside its own declaration:
// as pkg.Name through the package's import, or as a bare identifier
// inside the declaring package. Methods are not counted: satisfying an
// interface would make a scan by name over-report them. A method is part
// of its receiver type's declaration, so a type that only its own methods
// name is unreached. The scan is
// syntactic (go/parser only), so a name that a local identifier or a
// struct field shadows counts as reached; it errs towards leniency.
func TestExportedReachable(t *testing.T) {
	decls, refs := scanModule(t, ".")
	var missing, stale []string
	for key := range decls {
		if refs[key] {
			continue
		}
		if _, ok := unreachedAllowed[key]; !ok {
			missing = append(missing, key)
		}
	}
	for key := range unreachedAllowed {
		if !decls[key] || refs[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, key := range missing {
		t.Errorf("%s is exported but no non-test code names it: wire it to an entry point or delete it", key)
	}
	for _, key := range stale {
		t.Errorf("%s is on unreachedAllowed but is now reached or no longer exists: drop it from the list", key)
	}
}

// scanPkg is one directory's non-test files.
type scanPkg struct {
	name  string
	files []*ast.File
}

// scanModule parses every non-test .go file under root and returns the
// exported top-level names declared under internal/, keyed
// "internal/pkg.Name", and the set of those keys that some file names
// outside the key's own declaration.
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
		dir := filepath.ToSlash(filepath.Dir(p))
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
			eachDecl(f, func(_ ast.Node, names []*ast.Ident) {
				for _, n := range names {
					if n.IsExported() {
						decls[dir+"."+n.Name] = true
					}
				}
			})
		}
	}

	refs = map[string]bool{}
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
			markRefs(f, dir, imports, decls, refs)
		}
	}
	return decls, refs
}

// markRefs records in refs every declared key that file f, in package
// directory dir, names outside the key's own declaration. A method
// belongs to its receiver type's declaration.
func markRefs(f *ast.File, dir string, imports map[string]string, decls, refs map[string]bool) {
	var own map[string]bool // keys the top-level declaration being walked declares
	mark := func(key string) {
		if decls[key] && !own[key] {
			refs[key] = true
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
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
