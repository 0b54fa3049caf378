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
	"reflect"
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

// TestEveryFieldHasAProductionWriter is the field gate: every struct
// field of this module must be written by a production file (a non-test
// file of this module, or the bench module), and every exported field of
// an ...Options or ...Config struct by a production file outside its own
// package, or through its address (a flag binding). A write is a keyed or
// positional composite literal, an assignment, an increment, an
// address-of, or a method call through the field. A json-tagged field is
// exempt, because encoding/json writes it, and so are embedded fields and
// blank padding. A field nothing writes is a constant zero, and an option
// only its own package sets has one value: make it a constant, or give it
// a production writer.
func TestEveryFieldHasAProductionWriter(t *testing.T) {
	hits, err := unwrittenFields(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		t.Errorf("%s has no production writer", h)
	}
	if len(hits) > 0 {
		t.Logf("%d fields only tests or their own package's defaults write", len(hits))
	}
}

// TestFieldWriterRules pins the field gate's rules on the fixture module
// under testdata/reach.
func TestFieldWriterRules(t *testing.T) {
	hits, err := unwrittenFields(filepath.Join("testdata", "reach"), filepath.Join("testdata", "reach", "bench"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, h := range hits {
		listed[h[strings.LastIndex(h, " ")+1:]] = true
	}
	tests := []struct {
		name   string
		field  string
		listed bool
	}{
		{"option nothing sets", "opts.Options.Unset", true},
		{"option only its own package's defaults set", "opts.Options.Defaulted", true},
		{"plain field nothing writes", "opts.plain.unwritten", true},
		{"option another package's keyed literal sets", "opts.Options.Keyed", false},
		{"option another package assigns", "opts.Options.Assigned", false},
		{"option bound to a flag in its own package", "opts.Options.Flagged", false},
		{"option only the bench module sets", "opts.Options.Bench", false},
		{"json-tagged field", "opts.plain.Tagged", false},
		{"field written by a positional literal", "opts.pair.a", false},
		{"atomic field written through Add", "opts.counter.n", false},
		{"field of a generic type written through an instantiation", "inner.Box.v", false},
		{"embedded field", "inner.V.Base", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if listed[tt.field] != tt.listed {
				t.Errorf("%s listed = %v, want %v (hits: %v)", tt.field, listed[tt.field], tt.listed, hits)
			}
		})
	}
	if len(hits) != 3 {
		t.Errorf("got %d hits, want 3: %v", len(hits), hits)
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

// loadModules type-checks the non-test files of the module at dir and of
// the extra modules, returning the scan, the module paths (true for the
// module at dir) and the module at dir's path.
func loadModules(dir string, extra ...string) (*reachScan, map[string]bool, string, error) {
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
			return nil, nil, "", err
		}
		for _, p := range pkgs {
			if !p.DepOnly && p.Module != nil {
				modules[p.Module.Path] = i == 0
				if i == 0 {
					mainModule = p.Module.Path
				}
			}
			if err := s.check(p); err != nil {
				return nil, nil, "", err
			}
		}
	}
	return s, modules, mainModule, nil
}

// unreachableFuncs returns "file:line: pkg.[Recv.]Name" for every
// function and method of the module at dir that no production root
// reaches; every function of the extra modules is a root.
func unreachableFuncs(dir string, extra ...string) ([]string, error) {
	s, modules, mainModule, err := loadModules(dir, extra...)
	if err != nil {
		return nil, err
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
	var hits []string
	for _, c := range candidates {
		if !reached[c.fn] {
			hits = append(hits, s.hit(dir, c.pos, c.name))
		}
	}
	sort.Strings(hits)
	return hits, nil
}

// hit renders "file:line: name", the file relative to dir.
func (s *reachScan) hit(dir string, pos token.Pos, name string) string {
	p := s.fset.Position(pos)
	rel := p.Filename
	if abs, err := filepath.Abs(dir); err == nil {
		if r, err := filepath.Rel(abs, p.Filename); err == nil {
			rel = r
		}
	}
	return fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, name)
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

// unwrittenFields returns "file:line: pkg.Type.Field" for every field of a
// package-level struct type of the module at dir that the field gate
// lists: no production file writes it, or it is an exported field of an
// ...Options or ...Config struct that only its own package writes other
// than through its address. Files of the extra modules are production.
func unwrittenFields(dir string, extra ...string) ([]string, error) {
	s, modules, _, err := loadModules(dir, extra...)
	if err != nil {
		return nil, err
	}
	written := map[*types.Var]bool{} // some production file writes it
	outside := map[*types.Var]bool{} // another package writes it, or its address is taken
	for path, files := range s.files {
		write := func(v *types.Var, addr bool) {
			v = v.Origin()
			written[v] = true
			outside[v] = outside[v] || addr || v.Pkg().Path() != path
		}
		// mark writes every field selected along e: x.F.G[i] = … writes
		// both G and F.
		mark := func(e ast.Expr, addr bool) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					if v, ok := s.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
						write(v, addr)
					}
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st := structOf(s.info.Types[n].Type)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := s.info.Uses[key].(*types.Var); ok && v.IsField() {
									write(v, false)
								}
							}
						} else if st != nil {
							write(st.Field(i), false)
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						mark(l, false)
					}
				case *ast.IncDecStmt:
					mark(n.X, false)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X, true)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if _, ok := s.info.Uses[sel.Sel].(*types.Func); ok {
							mark(sel.X, false)
						}
					}
				}
				return true
			})
		}
	}

	var hits []string
	for path, files := range s.files {
		pkg := s.pkgs[path]
		if !modules[modulePath(path, modules)] {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Assign != 0 {
						continue
					}
					st, ok := s.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					option := strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")
					for i := 0; i < st.NumFields(); i++ {
						v := st.Field(i)
						if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok || v.Embedded() || v.Name() == "_" {
							continue // encoding/json writes it, it promotes methods, or it is padding
						}
						if !written[v] || option && v.Exported() && !outside[v] {
							hits = append(hits, s.hit(dir, v.Pos(), pkg.Name()+"."+ts.Name.Name+"."+v.Name()))
						}
					}
				}
			}
		}
	}
	sort.Strings(hits)
	return hits, nil
}

// structOf returns the struct type a composite literal of type t builds,
// looking through a pointer (an elided &T in a slice or map literal), or
// nil for other literals.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
