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
	"sort"
	"strings"
	"testing"
)

// auditedPackages are the packages whose exported surface must earn its
// place: every exported function and method declared in them is
// referenced by some non-test file of the root module or of benchmark/.
var auditedPackages = []string{
	"smartchaindb/internal/docstore",
	"smartchaindb/internal/storage",
	"smartchaindb/internal/nested",
	"smartchaindb/internal/txtype",
}

// apiAllowlist names the exported functions and methods kept without a
// non-test caller, each with its reason.
var apiAllowlist = map[string]string{
	"Explain":       "the planner's test surface: renders the plan Plan compiles",
	"LockingCommit": "the paper's locking ablation of nested execution (§4.2), run by the root package's benchmarks",
	"TripwireMain":  "the tripwire build's TestMain hook, called from test files only",
}

// TestEveryExportedStoreFunctionHasACaller keeps the document store,
// the storage engine, the nested engine and the type registry from
// growing entry points nothing calls. It type
// checks every non-test file of the root module and of benchmark/ (the
// files are only read) and fails, naming each, on an exported function
// or method of an audited package that no non-test file references
// apart from its own declaration. A method reached through an interface
// counts when the interface method is referenced; Error and String,
// which the standard library calls without naming them, are exempt.
func TestEveryExportedStoreFunctionHasACaller(t *testing.T) {
	a := newAPIAudit()
	for _, mod := range []struct{ dir, path string }{{".", "smartchaindb"}, {"benchmark", "smartchaindb/benchmark"}} {
		err := filepath.WalkDir(mod.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != mod.dir && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || (mod.dir == "." && path == "benchmark")) {
				return filepath.SkipDir
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
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(a.dirs))
	for p := range a.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := a.check(p); err != nil {
			t.Fatal(err)
		}
	}

	var unused []string
	for _, ap := range auditedPackages {
		pkg := a.pkgs[ap]
		if pkg == nil {
			t.Fatalf("audited package %s was not checked", ap)
		}
		for _, fn := range a.declared(pkg) {
			if fn.Name() == "Error" || fn.Name() == "String" || apiAllowlist[fn.Name()] != "" || a.reached(fn) {
				continue
			}
			unused = append(unused, fmt.Sprintf("%s: %s", a.fset.Position(fn.Pos()), types.ObjectString(fn, types.RelativeTo(pkg))))
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, or allowlist it with its reason", u)
	}
}

// apiAudit type checks packages from source and records every object a
// non-test file uses.
type apiAudit struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory, both modules
	pkgs  map[string]*types.Package
	uses  map[types.Object]bool
	ifces []*types.Interface // every interface method use's interface
}

func newAPIAudit() *apiAudit {
	fset := token.NewFileSet()
	return &apiAudit{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: make(map[string]string),
		pkgs: make(map[string]*types.Package),
		uses: make(map[types.Object]bool),
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
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Selections: make(map[*ast.SelectorExpr]*types.Selection)}
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
	return pkg, nil
}

func (a *apiAudit) use(obj types.Object) {
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	fn = fn.Origin()
	a.uses[fn] = true
	if sig := fn.Signature(); sig.Recv() != nil {
		if ifc, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			a.ifces = append(a.ifces, ifc)
		}
	}
}

// declared lists pkg's exported functions and the exported methods of
// its named types, interface methods included.
func (a *apiAudit) declared(pkg *types.Package) []*types.Func {
	var out []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				out = append(out, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, m)
				}
			}
			if ifc, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < ifc.NumExplicitMethods(); i++ {
					if m := ifc.ExplicitMethod(i); m.Exported() {
						out = append(out, m)
					}
				}
			}
		}
	}
	return out
}

// reached reports whether a non-test file uses fn, directly or, for a
// concrete method, through an interface method of the same name that
// its receiver type implements.
func (a *apiAudit) reached(fn *types.Func) bool {
	if a.uses[fn] {
		return true
	}
	recv := fn.Signature().Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	for _, ifc := range a.ifces {
		if !types.Implements(recv.Type(), ifc) {
			continue
		}
		for i := 0; i < ifc.NumMethods(); i++ {
			if m := ifc.Method(i); m.Name() == fn.Name() && a.uses[m] {
				return true
			}
		}
	}
	return false
}
