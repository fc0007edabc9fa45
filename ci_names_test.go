package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCINamesExist parses every go test command in the CI workflow and
// the Makefile and fails when an alternative of a -run, -bench or -fuzz
// pattern matches no Test, Benchmark or Fuzz function of the packages the
// command names: a test renamed or deleted under such a command leaves it
// selecting nothing, and passing. The reverse holds for fuzz targets:
// every Fuzz function of the module must be one that a -fuzz command of
// the Makefile runs, or make fuzz never explores it.
func TestCINamesExist(t *testing.T) {
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		cmds := goTestCommands(string(data))
		if len(cmds) == 0 {
			t.Fatalf("%s: no go test command found", file)
		}
		for _, cmd := range cmds {
			funcs := testFuncs(t, cmd.pkgs)
			for flag, pattern := range cmd.patterns {
				for _, alt := range strings.Split(pattern, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: %s: -%s alternative %q: %v", file, cmd.line, flag, alt, err)
						continue
					}
					if re.MatchString("") {
						continue // "^$" selects nothing on purpose; ".*" everything
					}
					found := false
					for _, name := range funcs {
						if selects(flag, name) && re.MatchString(name) {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("%s: %s: -%s alternative %q matches no function in %v", file, cmd.line, flag, alt, cmd.pkgs)
					}
				}
			}
		}
	}

	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	fuzzed := map[string]bool{} // "dir.FuzzName"
	for _, cmd := range goTestCommands(string(data)) {
		re, err := regexp.Compile(cmd.patterns["fuzz"])
		if cmd.patterns["fuzz"] == "" || err != nil {
			continue
		}
		for _, p := range cmd.pkgs {
			for _, name := range testFuncs(t, []string{p}) {
				if selects("fuzz", name) && re.MatchString(name) {
					fuzzed[filepath.Clean(p)+"."+name] = true
				}
			}
		}
	}
	dirs, err := packageDirs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		for _, name := range testFuncs(t, []string{dir}) {
			if selects("fuzz", name) && !fuzzed[dir+"."+name] {
				t.Errorf("%s: fuzz target %s is not run by make fuzz", dir, name)
			}
		}
	}
}

// goTestCommand is one go test invocation: its source line, its -run,
// -bench and -fuzz patterns by flag name, and its package arguments.
type goTestCommand struct {
	line     string
	patterns map[string]string
	pkgs     []string
}

// valueFlags are the go test flags that take the next argument as their
// value when written without "=".
var valueFlags = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "fuzztime": true, "benchtime": true, "count": true,
}

// goTestCommands returns the go test commands of a Makefile or workflow:
// lines joined across trailing backslashes, with make's $$ and $(GO)
// expanded, comments skipped.
func goTestCommands(text string) []goTestCommand {
	text = strings.ReplaceAll(text, "\\\n", " ")
	text = strings.ReplaceAll(text, "$$", "$")
	text = strings.ReplaceAll(text, "$(GO)", "go")
	var cmds []goTestCommand
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		cmd := goTestCommand{line: strings.TrimSpace(line[i:]), patterns: map[string]string{}}
		args := shellFields(line[i+len("go test "):])
		for j := 0; j < len(args); j++ {
			a := args[j]
			if !strings.HasPrefix(a, "-") {
				cmd.pkgs = append(cmd.pkgs, a)
				continue
			}
			name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
			if !hasVal && valueFlags[name] && j+1 < len(args) {
				j++
				val = args[j]
			}
			if name == "run" || name == "bench" || name == "fuzz" {
				cmd.patterns[name] = val
			}
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// shellFields splits s into words as a POSIX shell would for the plain
// commands the Makefile and workflow hold: whitespace separates, and
// single or double quotes group without being part of the word.
func shellFields(s string) []string {
	var out []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				word.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				out = append(out, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, word.String())
	}
	return out
}

// selects reports whether a pattern given to flag is matched against the
// function called name: -run against tests and fuzz targets, -bench
// against benchmarks, -fuzz against fuzz targets.
func selects(flag, name string) bool {
	switch flag {
	case "run":
		return strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz")
	case "bench":
		return strings.HasPrefix(name, "Benchmark")
	default:
		return strings.HasPrefix(name, "Fuzz")
	}
}

// testFuncs returns the names of the Test, Benchmark and Fuzz functions
// declared in the _test.go files of the package patterns ("./dir/",
// "./...", or ".").
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var dirs []string
	for _, p := range pkgs {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			all, err := packageDirs(filepath.Clean(rest))
			if err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, all...)
			continue
		}
		dirs = append(dirs, filepath.Clean(p))
	}
	var names []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
