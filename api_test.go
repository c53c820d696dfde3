package smartchaindb

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// apiModules are the modules whose non-test files count as callers:
// the root module and the repo benchmark beside it.
var apiModules = []apiModule{{dir: ".", path: "smartchaindb"}, {dir: "benchmark", path: "smartchaindb/benchmark"}}

// auditedPrefixes select the audited packages: every package under
// internal/, cmd/ and examples/ must earn each function and method it
// declares (a command's main is the one exemption).
var auditedPrefixes = []string{"smartchaindb/internal/", "smartchaindb/cmd/", "smartchaindb/examples/"}

// apiAllowlist names the functions and methods kept without a non-test
// caller, keyed by qualified name (pkg.Func, pkg.Type.Method). Each
// reason names the ROADMAP item that will call it or a test that needs
// it; an entry that a non-test file reaches, or that names nothing, is
// stale and fails the audit.
var apiAllowlist = map[string]string{
	"docstore.Collection.Explain": "the planner's test surface, read by TestChainIndexesRebuiltOnReopen and the docstore planner tests: renders the plan Plan compiles",
	"nested.LockingCommit":        "the paper's locking ablation of nested execution (§4.2, item 16), run by the root package's BenchmarkAblationNestedLockingVsNonLocking",
	"storage.Backend.SetRetain":   "the retention seam TestStateAtOutsideRetainedWindow and the MVCC tests set; no program shortens the default window",
	"storage.Engine.SetRetain":    "storage.Backend.SetRetain on the disk engine, set by TestMVCCRetentionFloor",
	"workload.BenchmarkShapes":    "the benchmark transactions the allocation pins share, first TestCodecAllocationCeilings",

	"netsim.Network.Partition":   "item 10 partitions the simulated network",
	"netsim.Network.Heal":        "item 10 heals a partition",
	"netsim.Network.HealLink":    "item 10 heals one link",
	"netsim.Network.DownCount":   "item 10 asserts how many nodes a schedule took down",
	"netsim.Network.Scheduler":   "item 10 drives the network's scheduler from the simulation seed",
	"netsim.Network.Nodes":       "item 10 sizes its fault schedule by the network",
	"consensus.Cluster.Crash":    "item 10 crashes validators on a schedule",
	"server.Cluster.RestartNode": "item 10 restarts them",
	"simclock.Scheduler.Run":     "item 10 runs a whole schedule to quiescence",
	"simclock.Scheduler.RunFor":  "item 10 runs a schedule for a span of virtual time",
	"simclock.Scheduler.Pending": "item 10 checks a schedule drained",
	"obs.Tracer.Trace":           "item 12(a) serves one transaction's trace at /traces?id=",
	"obs.Tracer.Observe":         "item 12(a) records the stages no layer stamps yet",
	"obs.Handler":                "item 12(a): its /traces endpoint is where the causal traces are served",

	"schema.Registry.Register": "the paper's extension surface: a custom type's schema, registered by TestServerAcceptsCustomTypeEndToEnd",

	"ethchain.Chain.Balance":      "the frozen ETH-SC baseline (item 8 keeps minisol and ethchain as they are)",
	"ethchain.Chain.Height":       "the frozen ETH-SC baseline (item 8 keeps minisol and ethchain as they are)",
	"minisol.CallResult.Reverted": "the frozen ETH-SC baseline (item 8 keeps minisol and ethchain as they are)",
}

// TestEveryExportedStoreFunctionHasACaller keeps every package of the
// module from growing functions nothing calls. It type checks every
// non-test file of the root module and of benchmark/ (the files are
// only read) and fails, naming each, on a function or method of an
// audited package, exported or not, that no non-test file references
// apart from its own declaration — and on a stale allowlist entry.
func TestEveryExportedStoreFunctionHasACaller(t *testing.T) {
	findings, err := auditAPI(apiModules, auditedPrefixes, apiAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestAPIAuditVerdicts runs the audit over the fixture module in
// testdata/apiaudit and checks each of its verdicts there.
func TestAPIAuditVerdicts(t *testing.T) {
	allow := map[string]string{
		"a.Kept":     "kept for item 7",
		"a.Used":     "called by TestFixture",
		"a.Gone":     "item 3 once called it",
		"a.Unproven": "kept for no stated reason",
		"a.Ghost":    "named by TestNoSuchTest",
	}
	findings, err := auditAPI([]apiModule{{dir: "testdata/apiaudit", path: "fixture"}}, []string{"fixture/internal/", "fixture/cmd/"}, allow)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, f := range findings {
		got[f.key] += f.kind + " "
	}
	want := map[string]string{
		"a.Unused":          "unused ",    // exported, called by a test file only
		"a.unusedHelper":    "unused ",    // unexported, called by nothing
		"a.Used":            "reached ",   // allowlisted, but cmd/app calls it
		"a.Gone":            "missing ",   // allowlisted, declared nowhere
		"a.Unproven":        "no reason ", // allowlisted without an item or a test
		"a.Ghost":           "no reason ", // allowlisted naming a test that does not exist
		"a.deadInterface.x": "unused ",    // an interface method nothing calls
		"main.unusedFlag":   "unused ",    // a command's function nothing calls
	}
	for key, kinds := range want {
		if got[key] != kinds {
			t.Errorf("%s: verdicts %q, want %q", key, got[key], kinds)
		}
	}
	for key, kinds := range got {
		if want[key] == "" {
			t.Errorf("%s: unexpected verdicts %q (the heap.Interface methods, the promoted area, the sealing markers, a.Kept and the command's main and init must pass)", key, kinds)
		}
	}
}

// apiModule is a module directory and its module path.
type apiModule struct{ dir, path string }

// apiFinding is one verdict of the audit against a function or an
// allowlist entry.
type apiFinding struct {
	pos, key string
	kind     string // unused, reached, missing or no reason
}

func (f apiFinding) String() string {
	switch f.kind {
	case "unused":
		return fmt.Sprintf("%s: %s has no caller outside tests: delete it, or allowlist it with its reason", f.pos, f.key)
	case "reached":
		return fmt.Sprintf("allowlist entry %s is stale: a non-test file reaches it, so drop the entry", f.key)
	case "missing":
		return fmt.Sprintf("allowlist entry %s is stale: no audited package declares it", f.key)
	}
	return fmt.Sprintf("allowlist entry %s: its reason must name an item N or a Test function that exists", f.key)
}

var (
	testFuncRE = regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	itemRE     = regexp.MustCompile(`\bitem \d+`)
	testNameRE = regexp.MustCompile(`\bTest\w*`)
)

// auditAPI type checks every package of mods and returns the verdicts
// on the functions and methods of the packages under prefixes and on
// allow's entries, in a stable order.
func auditAPI(mods []apiModule, prefixes []string, allow map[string]string) ([]apiFinding, error) {
	a := newAPIAudit()
	tests := map[string]bool{}
	for _, mod := range mods {
		err := filepath.WalkDir(mod.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				if strings.HasSuffix(path, "_test.go") {
					src, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
						tests[string(m[1])] = true
					}
				}
				return nil
			}
			if path != mod.dir {
				if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir // a module of its own
				}
			}
			rel, _ := filepath.Rel(mod.dir, path)
			ipath := mod.path
			if rel != "." {
				ipath += "/" + filepath.ToSlash(rel)
			}
			a.dirs[ipath] = path
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(a.dirs))
	for p := range a.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var audited []*types.Package
	for _, p := range paths {
		pkg, err := a.check(p)
		if err != nil {
			return nil, err
		}
		if pkg != nil && slices.ContainsFunc(prefixes, func(prefix string) bool { return strings.HasPrefix(p, prefix) }) {
			audited = append(audited, pkg)
		}
	}
	if len(audited) == 0 {
		return nil, fmt.Errorf("no package under %v was checked", prefixes)
	}

	var out []apiFinding
	declared := map[string]bool{}
	for _, pkg := range audited {
		for key, fn := range a.declared(pkg) {
			declared[key] = true
			reached := a.exempt(fn) || a.reached(fn)
			switch _, listed := allow[key]; {
			case reached && listed:
				out = append(out, apiFinding{key: key, kind: "reached"})
			case !reached && !listed:
				out = append(out, apiFinding{pos: a.fset.Position(fn.Pos()).String(), key: key, kind: "unused"})
			}
		}
	}
	for key, reason := range allow {
		if !declared[key] {
			out = append(out, apiFinding{key: key, kind: "missing"})
		}
		named := testNameRE.FindAllString(reason, -1)
		ok := itemRE.MatchString(reason) || len(named) > 0
		for _, name := range named {
			ok = ok && tests[name]
		}
		if !ok {
			out = append(out, apiFinding{key: key, kind: "no reason"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].kind < out[j].kind
	})
	return out, nil
}

// apiAudit type checks packages from source and records every object a
// non-test file uses.
type apiAudit struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]string // import path -> directory, every module
	pkgs    map[string]*types.Package
	uses    map[types.Object]bool
	ifces   map[string][]*types.Interface // method name -> the interfaces a non-test file calls it through
	named   []*types.Named                // every non-generic named type the modules declare
	markers map[*types.Func]bool          // unexported methods with no parameters, no results and an empty body
}

func newAPIAudit() *apiAudit {
	fset := token.NewFileSet()
	return &apiAudit{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		dirs:    make(map[string]string),
		pkgs:    make(map[string]*types.Package),
		uses:    make(map[types.Object]bool),
		ifces:   make(map[string][]*types.Interface),
		markers: make(map[*types.Func]bool),
	}
}

func (a *apiAudit) Import(path string) (*types.Package, error) {
	if _, ok := a.dirs[path]; ok {
		return a.check(path)
	}
	return a.std.Import(path)
}

// check type checks the package at import path once, over its non-test
// files for this platform and the default build tags.
func (a *apiAudit) check(path string) (*types.Package, error) {
	if pkg, ok := a.pkgs[path]; ok {
		return pkg, nil
	}
	dir := a.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	a.pkgs[path] = nil
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{Importer: a}).Check(path, a.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type check %s: %w", path, err)
	}
	a.pkgs[path] = pkg
	for _, obj := range info.Uses {
		a.use(obj)
	}
	for _, sel := range info.Selections {
		a.use(sel.Obj())
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Body != nil && len(fd.Body.List) == 0 {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok && !fn.Exported() && isNiladic(fn) {
					a.markers[fn] = true
				}
			}
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 && !types.IsInterface(named) {
				a.named = append(a.named, named)
			}
		}
	}
	return pkg, nil
}

func (a *apiAudit) use(obj types.Object) {
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	fn = fn.Origin()
	if a.uses[fn] {
		return
	}
	a.uses[fn] = true
	if sig := fn.Signature(); sig.Recv() != nil {
		if ifc, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			a.ifces[fn.Name()] = append(a.ifces[fn.Name()], ifc)
		}
	}
}

// declared maps the qualified name (pkg.Func, pkg.Type.Method) of
// each of pkg's functions and of each method of its named types,
// interface methods included, exported or not, to the function.
func (a *apiAudit) declared(pkg *types.Package) map[string]*types.Func {
	out := map[string]*types.Func{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			out[pkg.Name()+"."+name] = obj
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			methods := make([]*types.Func, 0, named.NumMethods())
			for i := 0; i < named.NumMethods(); i++ {
				methods = append(methods, named.Method(i))
			}
			if ifc, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < ifc.NumExplicitMethods(); i++ {
					methods = append(methods, ifc.ExplicitMethod(i))
				}
			}
			for _, m := range methods {
				out[pkg.Name()+"."+name+"."+m.Name()] = m
			}
		}
	}
	return out
}

// exempt reports whether fn is never meant to be named by a caller.
// The runtime calls a command's main (its init functions are never in
// package scope, so they are never audited). A sealing marker — an unexported method with no parameters, no
// results and an empty body, and the interface method of its package
// it implements — closes an interface to other packages. The standard
// library calls the rest without naming them: Error and String through
// fmt and the error interface, and any method of an interface declared
// by a standard-library package that fn's package imports and hands its
// values to — container/heap's Interface, encoding/json's Marshaler —
// when fn's type satisfies it.
func (a *apiAudit) exempt(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return fn.Pkg().Name() == "main" && fn.Name() == "main"
	}
	if a.markers[fn] {
		return true
	}
	if types.IsInterface(recv.Type()) {
		return !fn.Exported() && isNiladic(fn) && a.marks(fn.Pkg(), fn.Name())
	}
	if fn.Name() == "Error" || fn.Name() == "String" {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	for _, imp := range fn.Pkg().Imports() {
		if _, ours := a.dirs[imp.Path()]; ours {
			continue
		}
		scope := imp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			ifc, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || !hasMethod(ifc, fn.Name()) {
				continue
			}
			if types.Implements(t, ifc) || types.Implements(ptr, ifc) {
				return true
			}
		}
	}
	return false
}

// marks reports whether pkg declares a sealing marker named name.
func (a *apiAudit) marks(pkg *types.Package, name string) bool {
	for m := range a.markers {
		if m.Pkg() == pkg && m.Name() == name {
			return true
		}
	}
	return false
}

func isNiladic(fn *types.Func) bool {
	sig := fn.Signature()
	return sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func hasMethod(ifc *types.Interface, name string) bool {
	for i := 0; i < ifc.NumMethods(); i++ {
		if ifc.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// reached reports whether a non-test file uses fn, directly or, for a
// concrete method, through an interface method of the same name that
// some named type implements with fn — its own, or one fn is promoted
// into by embedding.
func (a *apiAudit) reached(fn *types.Func) bool {
	if a.uses[fn] {
		return true
	}
	recv := fn.Signature().Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	for _, ifc := range a.ifces[fn.Name()] {
		for _, named := range a.named {
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				if !types.Implements(t, ifc) {
					continue
				}
				if obj, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name()); obj == fn {
					return true
				}
			}
		}
	}
	return false
}
