package netemu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryFunctionHasAProductionCaller is the reachability gate: every
// function and method in this module must be reachable, through
// references in non-test files, from a production root. The roots are
// main and init of every package, package-level initializers, every
// function of the bench module, the root package's exported functions
// and the exported methods of the types it exports (by alias or
// declaration), and every method that satisfies an interface. A function
// that only tests call is dead weight in production: delete it, move it
// into the test that uses it, or give it a production caller.
func TestEveryFunctionHasAProductionCaller(t *testing.T) {
	hits, err := unreachableFuncs(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		t.Errorf("%s has no production caller", h)
	}
	if len(hits) > 0 {
		t.Logf("%d functions and methods only tests reach", len(hits))
	}
}

// TestReachabilityRules pins the gate's rules on a fixture module under
// testdata/reach, whose bench/ subdirectory is a second module like the
// real bench module.
func TestReachabilityRules(t *testing.T) {
	hits, err := unreachableFuncs(filepath.Join("testdata", "reach"), filepath.Join("testdata", "reach", "bench"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, h := range hits {
		listed[h[strings.LastIndex(h, " ")+1:]] = true
	}
	tests := []struct {
		name   string
		fn     string
		listed bool
	}{
		{"test-only function", "inner.TestOnly", true},
		{"function only a test-only function calls", "inner.onlyFromTestOnly", true},
		{"unused method", "inner.U.Unused", true},
		{"interface method", "inner.V.String", false},
		{"promoted interface method", "inner.Base.Shut", false},
		{"function used as a value", "inner.AsValue", false},
		{"main", "main.main", false},
		{"init", "main.init", false},
		{"package-level initializer's callee", "inner.initCallee", false},
		{"root-exported function", "fixture.Exported", false},
		{"callee of a root-exported function", "inner.FromExported", false},
		{"method of a root-aliased type", "inner.T.Aliased", false},
		{"unexported method of a root-aliased type", "inner.T.hidden", true},
		{"function only the bench module calls", "inner.BenchOnly", false},
		{"generic function", "inner.Generic", false},
		{"method of a generic type", "inner.Box.Get", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if listed[tt.fn] != tt.listed {
				t.Errorf("%s listed = %v, want %v (hits: %v)", tt.fn, listed[tt.fn], tt.listed, hits)
			}
		})
	}
	if len(hits) != 4 {
		t.Errorf("got %d hits, want 4: %v", len(hits), hits)
	}
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
}

func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// reachScan type-checks packages from source, sharing one Info, and
// takes the standard library from export data.
type reachScan struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (s *reachScan) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	return s.std.Import(path)
}

func (s *reachScan) check(p listedPackage) error {
	if p.Standard || s.pkgs[p.ImportPath] != nil {
		return nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(p.ImportPath, s.fset, files, s.info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	s.pkgs[p.ImportPath] = pkg
	s.files[p.ImportPath] = files
	return nil
}

// unreachableFuncs returns "file:line: pkg.[Recv.]Name" for every
// function and method of the module at dir that no production root
// reaches; every function of the extra modules is a root.
func unreachableFuncs(dir string, extra ...string) ([]string, error) {
	s := &reachScan{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	modules := map[string]bool{} // module path -> is the scanned (non-extra) module
	var mainModule string
	for i, d := range append([]string{dir}, extra...) {
		pkgs, err := goList(d)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if !p.DepOnly && p.Module != nil {
				modules[p.Module.Path] = i == 0
				if i == 0 {
					mainModule = p.Module.Path
				}
			}
			if err := s.check(p); err != nil {
				return nil, err
			}
		}
	}

	edges := map[*types.Func][]*types.Func{}
	var roots []*types.Func
	uses := func(n ast.Node) []*types.Func {
		var fs []*types.Func
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if f, ok := s.info.Uses[id].(*types.Func); ok {
					fs = append(fs, f.Origin())
				}
			}
			return true
		})
		return fs
	}
	type decl struct {
		fn   *types.Func
		pos  token.Pos
		name string
	}
	var candidates []decl
	var named []*types.Named
	for path, files := range s.files {
		pkg := s.pkgs[path]
		module := modulePath(path, modules)
		rootPkg := path == mainModule
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := s.info.Defs[d.Name].(*types.Func)
					if d.Body != nil {
						edges[fn] = append(edges[fn], uses(d.Body)...)
					}
					name := d.Name.Name
					switch {
					case !modules[module],
						d.Recv == nil && (name == "init" || name == "main" && pkg.Name() == "main"),
						rootPkg && d.Recv == nil && ast.IsExported(name):
						roots = append(roots, fn)
					}
					if modules[module] {
						candidates = append(candidates, decl{fn, d.Pos(), funcName(pkg, fn)})
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, uses(d)...)
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						t := types.Unalias(s.info.Defs[ts.Name].Type())
						n, ok := t.(*types.Named)
						if !ok {
							continue
						}
						if modules[module] && ts.Assign == 0 && n.TypeParams().Len() == 0 {
							named = append(named, n)
						}
						if rootPkg && ts.Name.IsExported() {
							mset := types.NewMethodSet(types.NewPointer(n))
							for i := 0; i < mset.Len(); i++ {
								if m := mset.At(i).Obj(); m.Exported() {
									roots = append(roots, m.(*types.Func).Origin())
								}
							}
						}
					}
				}
			}
		}
	}
	roots = append(roots, interfaceMethods(s, named)...)

	reached := map[*types.Func]bool{}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !reached[fn] {
			reached[fn] = true
			roots = append(roots, edges[fn]...)
		}
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var hits []string
	for _, c := range candidates {
		if !reached[c.fn] {
			p := s.fset.Position(c.pos)
			rel, err := filepath.Rel(absDir, p.Filename)
			if err != nil {
				rel = p.Filename
			}
			hits = append(hits, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, c.name))
		}
	}
	sort.Strings(hits)
	return hits, nil
}

// interfaceMethods returns the methods through which a named type of
// the scanned module satisfies any non-empty interface the program can
// see: those declared in the scanned packages and their imports, and
// interface literals.
func interfaceMethods(s *reachScan, named []*types.Named) []*types.Func {
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seen[it] && !it.IsImplicit() {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range s.pkgs {
		visit(p)
	}
	for _, tv := range s.info.Types {
		if _, ok := tv.Type.(*types.Interface); ok {
			add(tv.Type)
		}
	}
	var methods []*types.Func
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					methods = append(methods, obj.(*types.Func).Origin())
				}
			}
		}
	}
	return methods
}

// modulePath returns the module among modules that contains the package
// path, or "" for the standard library.
func modulePath(path string, modules map[string]bool) string {
	best := ""
	for m := range modules {
		if (path == m || strings.HasPrefix(path, m+"/")) && len(m) > len(best) {
			best = m
		}
	}
	return best
}

// funcName renders fn as pkg.Name or pkg.Recv.Name.
func funcName(pkg *types.Package, fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg.Name() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return pkg.Name() + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}
