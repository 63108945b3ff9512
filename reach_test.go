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

// unreachedAllowed lists the exported top-level names, methods and
// struct fields under internal/ that no non-test file reaches, each with
// the reason it stays. The list may only shrink: TestExportedReachable
// fails when an unreached key is missing from it, and when a listed key
// is reached or gone. A method stays only if a root reproduction or claim
// test calls it, if it belongs to a listed test harness, or if a test
// compares another path against it; a field only if a root benchmark or
// claim test sets it, or if removing it would change a recorded output.
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
	"internal/des.Resource.Acquire":           "bench_ablation_test.go's standalone queueing ablation holds the resource with it",
	"internal/des.StreamRNG.Uniform":          "bench_ablation_test.go's standalone queueing ablation draws its arrivals with it",
	"internal/faults.Scheduler.Errs":          "bench_resilience_test.go checks its fault schedule applied without errors",
	"internal/predict.SeqPredictor.Observe":   "integration_test.go's I/O sequence prediction claim trains the predictor",
	"internal/predict.SeqPredictor.Accuracy":  "integration_test.go's I/O sequence prediction claim scores the predictor",
	"internal/profile.Profiler.IngestAll":     "integration_test.go profiles recorded traces with it",
	"internal/monitor.FailureDetector.Report": "bench_resilience_test.go's MTTD/MTTR claim reads the detector's summary",

	// Fields the root benchmark and claim tests set.
	"internal/pfs.Config.ClientReadahead": "BenchmarkAblationReadahead sweeps it",
	"internal/pfs.Config.Layout":          "BenchmarkAblationLayoutPolicy compares the layout policies",
	"internal/storage.ProviderConfig.BB":  "bench_figs_test.go sizes the Figure-1 burst buffer with it",
	"internal/faults.Campaign.Stochastic": "bench_resilience_test.go's stochastic crash/repair soak",
	"internal/faults.Stochastic.MTBF":     "bench_resilience_test.go's stochastic crash/repair soak",
	"internal/faults.Stochastic.MTTR":     "bench_resilience_test.go's stochastic crash/repair soak",
	"internal/faults.Stochastic.Horizon":  "bench_resilience_test.go's stochastic crash/repair soak",

	// Recorded outputs that print the field.
	"internal/workload.ScaleConfig.ComputeTime": "perfbench's scale-ckpt digest hashes the report's ScaleConfig with %+v; deleting the field changes the recorded digest",

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
// "internal/pkg.Type.Method", must be selected as x.Method by such a file
// outside the method's own body; a package-qualified pkg.Name selects no
// method. The match is by name alone, so a call through an interface, or
// of another type's method of the same name, counts; methods named in
// stdlibMethods always count.
//
// Every exported field of a struct type declared under internal/, keyed
// "internal/pkg.Type.Field", must be written by such a file: as a key of
// a composite literal of the type (&T{F: v}, or {F: v} inside []T{…} or
// map[K]T{…}), by an unkeyed literal of the type, which writes every
// field, or through a selector of its name: x.F = v, x.F++, &x.F (a flag
// binding) or x.F[i] = v. A literal key whose type the literal does not
// name, as in a named slice type's elements, also matches by name. An
// embedded field is not scanned.
//
// The methods and fields of a type on unreachedAllowed follow that type.
// The scan is syntactic (go/parser only), so a name that a local
// identifier or a struct field shadows counts as reached; it errs
// towards leniency.
func TestExportedReachable(t *testing.T) {
	decls, refs := scanModule(t, ".")
	missing, stale := unreached(decls, refs, unreachedAllowed)
	for _, key := range missing {
		if decls[key] == kindField {
			t.Errorf("%s is exported but no non-test code writes it: set it from an entry point or delete it", key)
		} else {
			t.Errorf("%s is exported but no non-test code names it: wire it to an entry point or delete it", key)
		}
	}
	for _, key := range stale {
		t.Errorf("%s is on unreachedAllowed but is now reached or no longer exists: drop it from the list", key)
	}
}

// The kinds of declared key.
const (
	kindName   = "name"   // "internal/pkg.Name"
	kindMethod = "method" // "internal/pkg.Type.Method"
	kindField  = "field"  // "internal/pkg.Type.Field"
)

// unreached returns, sorted, the declared keys that nothing reaches and
// allowed does not cover, and the keys of allowed that are reached or no
// longer declared.
func unreached(decls map[string]string, refs map[string]bool, allowed map[string]string) (missing, stale []string) {
	for key, kind := range decls {
		if refs[key] {
			continue
		}
		if _, ok := allowed[key]; ok {
			continue
		}
		if typ, name, ok := memberKey(key); ok {
			if _, ok := stdlibMethods[name]; ok && kind == kindMethod {
				continue
			}
			if _, ok := allowed[typ]; ok {
				continue
			}
		}
		missing = append(missing, key)
	}
	for key := range allowed {
		if decls[key] == "" || refs[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	return missing, stale
}

// memberKey splits a method or field key "internal/pkg.Type.Member" into
// its type key "internal/pkg.Type" and the member name. ok is false for
// the key of a top-level name.
func memberKey(key string) (typ, name string, ok bool) {
	i := strings.LastIndexByte(key, '.')
	if i < 0 || strings.IndexByte(key, '.') == i {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

// TestReachScanner runs the scan on the fixture module under
// testdata/reach, one exported method per case of the method rule and
// one exported field per case of the field rule.
func TestReachScanner(t *testing.T) {
	decls, refs := scanModule(t, "testdata/reach")
	for key, want := range map[string]bool{
		"internal/lib.Square.Area":      true,  // called only through Shape
		"internal/lib.Square.Perimeter": false, // called by no one
		"internal/lib.Square.Grow":      false, // calls only itself
		"internal/lib.Square.Double":    false, // only lib.Double, a function, is selected
		"internal/lib.Wrapped.Unwrap":   false, // exempt, not reached
		"internal/lib.Harness.Run":      false, // covered by its type

		"internal/lib.Options.Keyed":    true,  // a key of &lib.Options{…}
		"internal/lib.Options.Assigned": true,  // o.Assigned = …
		"internal/lib.Options.Bound":    true,  // &o.Bound, bound to a flag
		"internal/lib.Options.Indexed":  true,  // o.Indexed[0] = …
		"internal/lib.Options.TestOnly": false, // set only by lib_test.go
		"internal/lib.Pair.A":           true,  // an unkeyed lib.Pair inside []lib.Pair{…}
		"internal/lib.Pair.B":           true,
		"internal/lib.Other.Keyed":      false, // Options.Keyed's key names Options, not Other
		"internal/lib.Harness.Verbose":  false, // covered by its type
	} {
		if decls[key] == "" {
			t.Errorf("%s: not declared", key)
		}
		if refs[key] != want {
			t.Errorf("%s: reached %v, want %v", key, refs[key], want)
		}
	}
	allowed := map[string]string{"internal/lib.Harness": "a fixture harness"}
	missing, stale := unreached(decls, refs, allowed)
	want := []string{
		"internal/lib.Options.TestOnly",
		"internal/lib.Other.Keyed",
		"internal/lib.Square.Double",
		"internal/lib.Square.Grow",
		"internal/lib.Square.Perimeter",
	}
	if !reflect.DeepEqual(missing, want) {
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

// scan is the state of one scanModule run.
type scan struct {
	decls   map[string]string          // declared key -> its kind
	structs map[string][]string        // struct type key -> the keys of its exported fields
	refs    map[string]bool            // keys reached by key
	sels    map[string]map[string]bool // selected name -> keys of the methods whose bodies select it ("" outside any)
	wrote   map[string]bool            // field names written by name
}

// scanModule parses every non-test .go file under root and returns the
// exported top-level names declared under internal/, keyed
// "internal/pkg.Name", with its exported methods and struct fields, keyed
// "internal/pkg.Type.Member", each mapped to its kind, and the set of
// those keys that some file reaches: a name named outside its own
// declaration, a method selected by name outside its own body, a field
// written.
func scanModule(t *testing.T, root string) (decls map[string]string, refs map[string]bool) {
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

	s := &scan{
		decls:   map[string]string{},
		structs: map[string][]string{},
		refs:    map[string]bool{},
		sels:    map[string]map[string]bool{},
		wrote:   map[string]bool{},
	}
	for dir, pkg := range pkgs {
		if dir != "internal" && !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range pkg.files {
			eachDecl(f, func(n ast.Node, names []*ast.Ident) {
				for _, n := range names {
					if n.IsExported() {
						s.decls[dir+"."+n.Name] = kindName
					}
				}
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
					s.decls[ownMethod(n, dir)] = kindMethod
				}
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						s.declFields(dir+"."+ts.Name.Name, st)
					}
				}
			})
		}
	}

	for dir, pkg := range pkgs {
		for _, f := range pkg.files {
			imports := map[string]string{} // local name -> declaring dir, "" outside the module
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				rel, inModule := strings.CutPrefix(ip, "pioeval/")
				local := path.Base(ip)
				if p := pkgs[rel]; inModule && p != nil {
					local = p.name
				}
				if imp.Name != nil {
					local = imp.Name.Name
				}
				if !inModule {
					rel = ""
				}
				imports[local] = rel
			}
			s.markRefs(f, dir, imports)
		}
	}
	for key, kind := range s.decls {
		_, name, ok := memberKey(key)
		switch {
		case !ok:
		case kind == kindField:
			if s.wrote[name] {
				s.refs[key] = true
			}
		default:
			for site := range s.sels[name] {
				if site != key {
					s.refs[key] = true
					break
				}
			}
		}
	}
	return s.decls, s.refs
}

// declFields declares the exported named fields of the struct type typ.
func (s *scan) declFields(typ string, st *ast.StructType) {
	var keys []string
	for _, fld := range st.Fields.List {
		for _, id := range fld.Names {
			if id.IsExported() {
				keys = append(keys, typ+"."+id.Name)
				s.decls[typ+"."+id.Name] = kindField
			}
		}
	}
	s.structs[typ] = keys
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

// markRefs records in s.refs every declared top-level key that file f,
// in package directory dir, names outside the key's own declaration (a
// method belongs to its receiver type's declaration), and every field
// key a literal of a named type writes. It records in s.sels every
// method name f selects, with the key of the method whose body selects
// it ("" outside any method), and in s.wrote every field name f writes
// by name.
func (s *scan) markRefs(f *ast.File, dir string, imports map[string]string) {
	var own map[string]bool // keys the top-level declaration being walked declares
	var method string       // key of the method being walked, or ""
	mark := func(key string) {
		if s.decls[key] != "" && !own[key] {
			s.refs[key] = true
		}
	}
	// typeKey is the key of the type that a literal's type x names,
	// through a pointer or type arguments, or "" when x names none
	// declared in the module.
	typeKey := func(x ast.Expr) string {
		for {
			switch e := x.(type) {
			case *ast.StarExpr:
				x = e.X
			case *ast.IndexExpr:
				x = e.X
			case *ast.IndexListExpr:
				x = e.X
			case *ast.Ident:
				return dir + "." + e.Name
			case *ast.SelectorExpr:
				if id, ok := e.X.(*ast.Ident); ok && imports[id.Name] != "" {
					return imports[id.Name] + "." + e.Sel.Name
				}
				return ""
			default:
				return ""
			}
		}
	}
	// write records the field names a write to x goes through: each
	// selector of x.F.G, x.F[i] or *x.F.
	write := func(x ast.Expr) {
		for {
			switch e := x.(type) {
			case *ast.SelectorExpr:
				if id, ok := e.X.(*ast.Ident); ok {
					if _, ok := imports[id.Name]; ok {
						return // a package-level variable
					}
				}
				s.wrote[e.Sel.Name] = true
				x = e.X
			case *ast.IndexExpr:
				x = e.X
			case *ast.StarExpr:
				x = e.X
			case *ast.ParenExpr:
				x = e.X
			default:
				return
			}
		}
	}
	var visit func(n ast.Node) bool
	// lit walks the composite literal cl of type typ: cl.Type, or for a
	// literal whose type is elided, the element or key type of the
	// literal around it (nil when that type is not written there).
	var lit func(cl *ast.CompositeLit, typ ast.Expr)
	lit = func(cl *ast.CompositeLit, typ ast.Expr) {
		if cl.Type != nil {
			ast.Inspect(cl.Type, visit)
		}
		if st, ok := typ.(*ast.StarExpr); ok {
			typ = st.X // an elided &T
		}
		// In a literal of a struct type declared under internal/, a key
		// names a field of that type. Where the literal's type is not
		// written, only the key's name can match; keys of other types'
		// literals match nothing. Elided literals inside a named slice
		// or map type have no written type.
		typKey := typeKey(typ)
		fields, isStruct := s.structs[typKey]
		var keyType, elemType ast.Expr // the types of elided key and element literals
		switch t := typ.(type) {
		case *ast.ArrayType:
			elemType = t.Elt
		case *ast.MapType:
			keyType, elemType = t.Key, t.Value
		}
		elem := func(x ast.Expr, typ ast.Expr) {
			if el, ok := x.(*ast.CompositeLit); ok && el.Type == nil {
				lit(el, typ)
				return
			}
			ast.Inspect(x, visit)
		}
		keyed := false
		for _, x := range cl.Elts {
			kv, ok := x.(*ast.KeyValueExpr)
			if !ok {
				elem(x, elemType)
				continue
			}
			keyed = true
			if id, ok := kv.Key.(*ast.Ident); ok {
				if isStruct {
					mark(typKey + "." + id.Name)
				} else if typ == nil {
					s.wrote[id.Name] = true
				}
			}
			elem(kv.Key, keyType)
			elem(kv.Value, elemType)
		}
		if isStruct && !keyed && len(cl.Elts) > 0 {
			for _, key := range fields {
				mark(key)
			}
		}
	}
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if rel, ok := imports[x.Name]; ok {
					// pkg.Name names a package member, not a method.
					if rel != "" {
						mark(rel + "." + n.Sel.Name)
					}
					return false
				}
			}
			if s.sels[n.Sel.Name] == nil {
				s.sels[n.Sel.Name] = map[string]bool{}
			}
			s.sels[n.Sel.Name][method] = true
			// n.Sel is a field or method: only the operand can name a
			// top-level identifier.
			ast.Inspect(n.X, visit)
			return false
		case *ast.CompositeLit:
			lit(n, n.Type)
			return false
		case *ast.AssignStmt:
			for _, x := range n.Lhs {
				write(x)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
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
