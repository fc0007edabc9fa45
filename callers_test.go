package repro_test

import (
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

// TestEveryFunctionHasACaller type-checks the non-test Go of this module
// and of the jecbbench module and fails on any declaration under
// internal/ that nothing but tests refers to: a package-level function or
// method, exported or not, or an exported var, const or type. A method
// through which its type satisfies an interface is called through that
// interface, so it counts as used; internal/fixture (test fixtures) is not
// checked, nor are init and main.
func TestEveryFunctionHasACaller(t *testing.T) {
	dead, err := uncalled([]module{{path: "repro", dir: "."}, {path: "repro/jecbbench", dir: "jecbbench"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s: no non-test code refers to it: delete it, or move it into a _test.go file", d)
	}
}

// TestUncalledReportsExactlyTheDead runs the check on a two-package module:
// of a dead exported function, a helper only its own test calls, a String
// method and a method called only through an interface, it must report
// the first two and nothing else.
func TestUncalledReportsExactlyTheDead(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

import "fmt"

// Shape is implemented by Square.
type Shape interface{ Area() int }

// Square is a shape.
type Square struct{ Side int }

// Area is only called through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// String is only called by fmt.
func (s Square) String() string { return fmt.Sprint("square ", s.Side) }

// Total sums the areas.
func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// Dead has no caller.
func Dead() int { return 1 }

func helper() int { return 2 }
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestHelper(t *testing.T) {
	if helper() != 2 || Dead() != 1 {
		t.Fatal("wrong")
	}
}
`,
		"cmd/app/main.go": `package main

import (
	"fmt"

	"m/internal/lib"
)

func main() {
	sq := lib.Square{Side: 2}
	fmt.Println(sq, lib.Total([]lib.Shape{sq}))
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := uncalled([]module{{path: "m", dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"m/internal/lib.Dead", "m/internal/lib.helper"}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Fatalf("reported %q, want %q", dead, want)
	}
}

// module is a Go module to check: its module path and its root directory.
type module struct{ path, dir string }

// uncalled type-checks every package of the modules, with the host's build
// constraints and the standard library from source, and returns the
// checked declarations that no non-test file refers to, sorted, each as
// "importpath.Name" or "importpath.Type.Method".
func uncalled(mods []module) ([]string, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset: fset,
		mods: mods,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
		used: map[types.Object]bool{},
	}
	var checked []types.Object
	for _, m := range mods {
		dirs, err := packageDirs(m.dir)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			rel, _ := filepath.Rel(m.dir, d)
			rel = filepath.ToSlash(rel)
			path := m.path
			if rel != "." {
				path += "/" + rel
			}
			pkg, err := l.Import(path)
			if err != nil {
				return nil, err
			}
			if pkg == nil || m != mods[0] || !strings.HasPrefix(rel+"/", "internal/") || strings.HasPrefix(rel+"/", "internal/fixture/") {
				continue
			}
			checked = append(checked, declared(pkg)...)
		}
	}
	ifaces := l.interfaces()
	var dead []string
	for _, obj := range checked {
		if l.used[obj] {
			continue
		}
		name := obj.Pkg().Path() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			recv := fn.Type().(*types.Signature).Recv()
			if recv != nil {
				if satisfies(recv.Type(), fn.Name(), ifaces) {
					continue
				}
				named := recvNamed(recv.Type())
				name = obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
		dead = append(dead, name)
	}
	sort.Strings(dead)
	return dead, nil
}

// declared returns what the check holds pkg to: every package-level
// function and method except init and main, and every exported var,
// const and type.
func declared(pkg *types.Package) []types.Object {
	var out []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		switch obj := obj.(type) {
		case *types.Func:
			if name != "init" && name != "main" {
				out = append(out, obj)
			}
		case *types.TypeName:
			if obj.Exported() {
				out = append(out, obj)
			}
			if named, ok := obj.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					out = append(out, named.Method(i))
				}
			}
		default:
			if obj.Exported() {
				out = append(out, obj)
			}
		}
	}
	return out
}

// satisfies reports whether the method name of recv's type is one through
// which that type (or a pointer to it) implements one of ifaces.
func satisfies(recv types.Type, name string, ifaces []*types.Interface) bool {
	named := recvNamed(recv)
	for _, iface := range ifaces {
		has := false
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
			return true
		}
	}
	return false
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// packageDirs returns every directory under root that holds Go files,
// skipping hidden directories, testdata and nested modules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root {
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if ms, _ := filepath.Glob(filepath.Join(path, "*.go")); len(ms) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// loader type-checks the modules' packages from their non-test files and
// records every object those files refer to; other imports come from the
// standard library.
type loader struct {
	fset *token.FileSet
	mods []module
	std  types.ImporterFrom
	pkgs map[string]*types.Package
	used map[types.Object]bool
	// seen holds every interface type met in the modules' code.
	seen []*types.Interface
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	var mod *module
	for i, m := range l.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && (mod == nil || len(m.path) > len(mod.path)) {
			mod = &l.mods[i]
		}
	}
	if mod == nil {
		return l.std.ImportFrom(path, dir, mode)
	}
	src := filepath.Join(mod.dir, filepath.FromSlash(strings.TrimPrefix(path[len(mod.path):], "/")))
	bp, err := build.Default.ImportDir(src, 0)
	if _, none := err.(*build.NoGoError); none {
		l.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(src, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a method of an instantiated generic type
		}
		l.used[obj] = true
	}
	for _, tv := range info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			l.seen = append(l.seen, iface)
		}
	}
	return pkg, nil
}

// interfaces returns every interface the code can call a method through:
// those met in the modules' code, and every interface type declared at
// package level in any package they import, directly or not (fmt.Stringer,
// json.Marshaler, heap.Interface, ...).
func (l *loader) interfaces() []*types.Interface {
	out := append([]*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}, l.seen...)
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if p == nil || visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					out = append(out, iface)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	return out
}
