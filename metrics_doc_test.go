package repro_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// spanPattern is the one metric-reference row whose name is built at run
// time: obs/span.go registers span.<name>.ns for every completed span.
const spanPattern = "span.<name>.ns"

// TestMetricReferenceMatchesCode checks DESIGN.md's "Metric reference"
// against the module's non-test Go in both directions: every metric name
// the code registers has a row, and every name a row lists is registered
// somewhere. A registered name is the string literal passed first to
// obs.Inc/Add/Set/Observe or to a registry's
// Counter/Gauge/Histogram/HDR method. Outside package obs a metric name
// must be such a literal, so no name escapes the check.
func TestMetricReferenceMatchesCode(t *testing.T) {
	code := registeredMetrics(t)
	doc := documentedMetrics(t)
	var undocumented, unregistered []string
	for name, where := range code {
		if !doc[name] {
			undocumented = append(undocumented, name+" ("+where+")")
		}
	}
	for name := range doc {
		if _, ok := code[name]; !ok && name != spanPattern {
			unregistered = append(unregistered, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	for _, n := range undocumented {
		t.Errorf("metric %s has no row in DESIGN.md's Metric reference", n)
	}
	for _, n := range unregistered {
		t.Errorf("Metric reference row names %s, which no code registers", n)
	}
}

// metricCalls maps the package-level obs helpers and the registry
// methods that take a metric name first.
var (
	obsHelpers      = map[string]bool{"Inc": true, "Add": true, "Set": true, "Observe": true}
	registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "HDR": true}
)

// registeredMetrics parses every non-test Go file of the module (not the
// separate jecbbench module) and returns each literal metric name with
// the file that first registers it.
func registeredMetrics(t *testing.T) map[string]string {
	t.Helper()
	names := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." {
				if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir // a module of its own
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inObs := filepath.ToSlash(filepath.Dir(path)) == "internal/obs"
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			isHelper := pkg != nil && pkg.Name == "obs" && obsHelpers[sel.Sel.Name]
			if !isHelper && !registryMethods[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				if !inObs {
					t.Errorf("%s: %s.%s with a non-literal metric name",
						fset.Position(call.Pos()), exprName(sel.X), sel.Sel.Name)
				}
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("%s: %v", fset.Position(lit.Pos()), err)
			}
			if _, seen := names[name]; !seen {
				names[name] = path
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no registered metric found")
	}
	return names
}

func exprName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "…"
}

// documentedMetrics returns every backquoted name in the first column of
// DESIGN.md's "Metric reference" table. Each row must list at least one.
func documentedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tick := regexp.MustCompile("`([^`]+)`")
	names := map[string]bool{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "### Metric reference":
			in = true
			continue
		case in && strings.HasPrefix(line, "#"):
			in = false
		}
		if !in || !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.SplitN(line, "|", 3)[1]
		ms := tick.FindAllStringSubmatch(cell, -1)
		if len(ms) == 0 {
			t.Errorf("Metric reference row names no metric: %s", line)
		}
		for _, m := range ms {
			names[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md has no Metric reference rows")
	}
	return names
}
