package repro_test

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
	"reflect"
	"sort"
	"strings"
	"sync"
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
	for _, d := range loadRepo(t).uncalled() {
		t.Errorf("%s: no non-test code refers to it: delete it, or move it into a _test.go file", d)
	}
}

// TestEveryFieldIsRead fails on any named field of a struct declared
// under internal/ (except internal/fixture), exported or not, that no
// non-test file of this module or of jecbbench reads: a field that is
// only written, or read only by tests, is state nothing uses. What counts
// as a read is set out at readFields; a json-tagged field counts as read
// (it is output), and embedded fields are exempt. It shares
// TestEveryFunctionHasACaller's type-check pass.
func TestEveryFieldIsRead(t *testing.T) {
	for _, f := range loadRepo(t).unread() {
		t.Errorf("%s: no non-test code reads it: delete it, with whatever only fills it", f)
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
	writeModule(t, dir, files)
	l, err := load([]module{{path: "m", dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	dead := l.uncalled()
	want := []string{"m/internal/lib.Dead", "m/internal/lib.helper"}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Fatalf("reported %q, want %q", dead, want)
	}
}

// TestUnreadReportsExactlyTheDead runs the field check on a two-package
// module: of a field that is only written, one that only its own test
// reads and one that is only self-accumulated, it must report all three;
// of a json-tagged field, a field of a struct printed with %+v, a field of
// a struct used as a map key and a field read through &x.f, none.
func TestUnreadReportsExactlyTheDead(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

import "fmt"

// Counter counts.
type Counter struct {
	Hits    int
	written int
	tested  int
	n       int
	Out     int ` + "`json:\"out\"`" + `
}

// Merge folds o into c.
func (c *Counter) Merge(o Counter) {
	c.Hits += o.Hits
	c.n += o.n
	c.written = 1
	c.tested++
}

// Point is printed.
type Point struct{ X, y int }

// Show prints p.
func Show(p Point) string { return fmt.Sprintf("%+v", p) }

// Key is a map key.
type Key struct{ a, b int }

// Seen is keyed by Key.
var Seen = map[Key]bool{}

// Box holds a value read through its address.
type Box struct{ v int }

// Ptr returns the address of b's value.
func Ptr(b *Box) *int { return &b.v }
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestTested(t *testing.T) {
	c := &Counter{}
	c.Merge(Counter{})
	if c.tested != 1 {
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
	c := &lib.Counter{}
	c.Merge(lib.Counter{Hits: 1})
	fmt.Println(c.Hits, lib.Show(lib.Point{X: 1}), len(lib.Seen), *lib.Ptr(&lib.Box{}))
}
`,
	})
	l, err := load([]module{{path: "m", dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	dead := l.unread()
	want := []string{"m/internal/lib.Counter.n", "m/internal/lib.Counter.tested", "m/internal/lib.Counter.written"}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Fatalf("reported %q, want %q", dead, want)
	}
}

// writeModule writes files, by slash-separated path, under dir.
func writeModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// module is a Go module to check: its module path and its root directory.
type module struct{ path, dir string }

// std imports the standard library from source; every load shares it, so
// each standard package is type-checked once per test binary.
var (
	stdFset = token.NewFileSet()
	std     = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
)

var (
	repoOnce sync.Once
	repo     *loader
	repoErr  error
)

// loadRepo type-checks this module and the jecbbench module once, for
// both checks.
func loadRepo(t *testing.T) *loader {
	t.Helper()
	repoOnce.Do(func() {
		repo, repoErr = load([]module{{path: "repro", dir: "."}, {path: "repro/jecbbench", dir: "jecbbench"}})
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repo
}

// load type-checks every package of the modules, with the host's build
// constraints and the standard library from source. The packages both
// checks hold to are those under the first module's internal/, except
// internal/fixture.
func load(mods []module) (*loader, error) {
	l := &loader{
		fset: stdFset,
		mods: mods,
		std:  std,
		pkgs: map[string]*types.Package{},
		used: map[types.Object]bool{},
		read: map[*types.Var]bool{},
	}
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
			l.checked = append(l.checked, pkg)
		}
	}
	return l, nil
}

// uncalled returns the checked declarations that no non-test file refers
// to, sorted, each as "importpath.Name" or "importpath.Type.Method".
func (l *loader) uncalled() []string {
	ifaces := l.interfaces()
	var dead []string
	for _, pkg := range l.checked {
		for _, obj := range declared(pkg) {
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
	}
	sort.Strings(dead)
	return dead
}

// unread returns the named, non-embedded fields of the checked packages'
// structs that no non-test file reads, sorted, each as
// "importpath.Type.field" ("importpath.struct@file:line.field" for a
// struct literal type).
func (l *loader) unread() []string {
	checked := map[*types.Package]bool{}
	for _, pkg := range l.checked {
		checked[pkg] = true
	}
	var dead []string
	for _, f := range l.fields {
		if checked[f.v.Pkg()] && !f.json && !l.read[f.v] {
			dead = append(dead, f.name)
		}
	}
	sort.Strings(dead)
	return dead
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
	// checked holds the packages both checks hold to, in load order.
	checked []*types.Package
	// fields holds every named, non-embedded struct field the modules'
	// code declares; read holds those a non-test file reads.
	fields []field
	read   map[*types.Var]bool
}

// field is a declared struct field: its object, its name as reported,
// and whether it carries a json tag.
type field struct {
	v    *types.Var
	name string
	json bool
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
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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
	l.readFields(path, files, info)
	return pkg, nil
}

// readFields records the struct fields the files declare, and marks read
// every field they read. A selector of a field is a write, not a read,
// when it is the left side of =, op=, ++ or -- (also through an index:
// x.f[i] = v writes f), or the right side of a self-accumulation
// x.f op= y.f of the same field; a composite-literal key is a write too.
// A field also counts as read when its struct is reached, through
// fields, slices, maps and pointers, from an argument of a call into
// encoding/json (exported fields, stopping at a MarshalJSON method) or
// fmt or reflect (all fields, stopping at a String or Error method), or
// when its struct type is a map key or an operand of == or !=.
func (l *loader) readFields(path string, files []*ast.File, info *types.Info) {
	fieldOf := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var).Origin()
			}
		}
		return nil
	}
	writes := map[ast.Expr]bool{}
	named := map[*ast.StructType]string{} // struct types of type declarations, by name
	written := func(e ast.Expr) ast.Expr {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			default:
				return x
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					named[st] = path + "." + n.Name.Name
				}
			case *ast.StructType:
				name, ok := named[n]
				if !ok {
					pos := l.fset.Position(n.Pos())
					name = fmt.Sprintf("%s.struct@%s:%d", path, filepath.Base(pos.Filename), pos.Line)
				}
				l.declare(name, n, info)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					writes[written(lhs)] = true
				}
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					if v := fieldOf(written(n.Lhs[0])); v != nil && v == fieldOf(n.Rhs[0]) {
						writes[ast.Unparen(n.Rhs[0])] = true
					}
				}
			case *ast.IncDecStmt:
				writes[written(n.X)] = true
			case *ast.CallExpr:
				var fn types.Object
				switch f := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					fn = info.Uses[f]
				case *ast.SelectorExpr:
					fn = info.Uses[f.Sel]
				}
				if fn, ok := fn.(*types.Func); ok && fn.Pkg() != nil {
					switch fn.Pkg().Path() {
					case "encoding/json":
						for _, a := range n.Args {
							l.reach(info.TypeOf(a), true, map[types.Type]bool{})
						}
					case "fmt", "reflect":
						for _, a := range n.Args {
							l.reach(info.TypeOf(a), false, map[types.Type]bool{})
						}
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					l.compared(info.TypeOf(n.X))
				}
			}
			return true
		})
	}
	for sel, s := range info.Selections {
		if s.Kind() == types.FieldVal && !writes[sel] {
			l.read[s.Obj().(*types.Var).Origin()] = true
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			l.compared(m.Key())
		}
	}
}

// declare records the fields of the struct type st as name.field.
func (l *loader) declare(name string, st *ast.StructType, info *types.Info) {
	s, ok := info.TypeOf(st).(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < s.NumFields(); i++ {
		v := s.Field(i)
		if v.Embedded() || v.Name() == "_" {
			continue
		}
		l.fields = append(l.fields, field{v: v, name: name + "." + v.Name(), json: reflect.StructTag(s.Tag(i)).Get("json") != ""})
	}
}

// reach marks read the fields of the structs reached from t through
// fields, slices, arrays, maps and pointers: only exported fields, and
// stopping at a MarshalJSON method, for json; all fields, stopping at a
// String or Error method, otherwise.
func (l *loader) reach(t types.Type, json bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		stops := []string{"String", "Error"}
		if json {
			stops = []string{"MarshalJSON"}
		}
		for _, m := range stops {
			if obj, _, _ := types.LookupFieldOrMethod(named, true, nil, m); obj != nil {
				if _, ok := obj.(*types.Func); ok {
					return
				}
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		l.reach(u.Elem(), json, seen)
	case *types.Slice:
		l.reach(u.Elem(), json, seen)
	case *types.Array:
		l.reach(u.Elem(), json, seen)
	case *types.Map:
		l.reach(u.Key(), json, seen)
		l.reach(u.Elem(), json, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if v := u.Field(i); !json || v.Exported() {
				l.read[v.Origin()] = true
				l.reach(v.Type(), json, seen)
			}
		}
	}
}

// compared marks read every field that comparing a value of type t
// compares: all fields of a struct, and of the structs and arrays inside
// it, but not through a pointer.
func (l *loader) compared(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Array:
		l.compared(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			l.read[u.Field(i).Origin()] = true
			l.compared(u.Field(i).Type())
		}
	}
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
