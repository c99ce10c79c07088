package abnn2_test

// The reachability scan as a tier-1 test: code that only tests reach is
// not part of the system, and a layer of it grows back one convenient
// helper at a time unless something fails when it does.
//
// Rule 1: every function declared in a non-test file under internal/
// (packages testkit and leakcheck are test instruments, exempt whole) is
// named by some non-test file of the repository — cmd/ and the benchmark
// module's adapter included — other than at its own declaration, or is in
// internalOnlyTests below with the reason it stays.
//
// Rule 2: every exported function of the root package is named by a test,
// an example or a binary. The root API is what a library user outside this
// module reaches; one nobody calls here is one nobody checks.
//
// Rule 3: every package main outside the benchmark module is a command
// under cmd/. A program anywhere else is one no build, test or CI job
// runs, so it drifts; an example belongs in example_test.go, where
// `go test` runs it and checks its output.
//
// Rule 4: every fuzz target (a func Fuzz* in a _test.go file outside the
// benchmark module) is a -fuzz target of the Makefile's fuzz recipe, and
// every target the recipe fuzzes exists. A renamed or new target that the
// recipe (and CI, which runs the same list) misses is never fuzzed, and
// nothing else fails when that happens.
//
// The scan is go/parser only: names, not types. A method counts as named
// when any selector or identifier spells its name, so `String` on one type
// hides behind `String` on another. That errs towards silence, never
// towards a false alarm, and the functions this test exists to catch have
// names of their own.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// internalOnlyTests lists internal functions no non-test file names,
// each with why it is kept. An entry that becomes reachable, or whose
// function is deleted, fails the test too: the list stays exact.
var internalOnlyTests = map[string]string{
	"otext.Sender.SendChosen":       "chosen-message OT primitive, pinned by a golden transcript and FuzzRecvChosen",
	"otext.Receiver.RecvChosen":     "receiver half of SendChosen: same golden, same fuzz target",
	"transport.Fault":               "chaos instrument: wraps a conn with the fault plan every chaos suite injects",
	"transport.FaultConn.Sends":     "chaos instrument: how many sends a clean run makes, so a test can fault each",
	"transport.FaultConn.Fired":     "chaos instrument: asserts the planned fault was actually reached",
	"transport.Meter.Reset":         "test instrument: zero a meter after set-up to count one phase on its own",
	"serve.Admission.Active":        "chaos instrument: tests wait on the admitted-session count",
	"bitmat.Matrix.Bit":             "test instrument: the reader SetBit and the transposes are checked against",
	"otext.Receiver.RowScratchPeak": "test instrument: the free-list bound TestOfflineRowScratchBounded asserts",
	"ring.Ring.EqualMat":            "test oracle: share reconstruction in the core, gc and testkit tests",
	"trace.Collector.Spans":         "public API: how a library user reads an abnn2.TraceCollector; the root telemetry tests read through it",
}

type declared struct {
	name string // "pkg.Func" or "pkg.Type.Method"
	bare string // the identifier a caller spells
	pos  token.Position
}

// scanGo parses every .go file of the repository that keep admits,
// returning the functions declared in those declsIn admits and how often
// each identifier is spelled other than as a function declaration's name.
func scanGo(t *testing.T, keep func(path string) bool, declsIn func(path string) bool) ([]declared, map[string]int) {
	t.Helper()
	fset := token.NewFileSet()
	var decls []declared
	uses := map[string]int{}
	walkGo(t, func(path string) error {
		if !keep(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if !declsIn(path) || fd.Name.Name == "main" || fd.Name.Name == "init" {
				continue
			}
			name := f.Name.Name + "."
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				name += receiverType(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, declared{name + fd.Name.Name, fd.Name.Name, fset.Position(fd.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	return decls, uses
}

// walkGo calls visit with the slash-separated path of every .go file of
// the repository outside hidden and testdata directories.
func walkGo(t *testing.T, visit func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if path = filepath.ToSlash(path); strings.HasSuffix(path, ".go") {
			return visit(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

func isTest(path string) bool { return strings.HasSuffix(path, "_test.go") }

func TestInternalFunctionsAreReachable(t *testing.T) {
	exempt := func(path string) bool {
		return strings.HasPrefix(path, "internal/testkit/") || strings.HasPrefix(path, "internal/leakcheck/")
	}
	decls, uses := scanGo(t,
		func(path string) bool { return !isTest(path) },
		func(path string) bool { return strings.HasPrefix(path, "internal/") && !exempt(path) })
	seen := map[string]bool{}
	var dead []string
	for _, d := range decls {
		reachable := uses[d.bare] > 0
		if _, listed := internalOnlyTests[d.name]; listed {
			seen[d.name] = true
			if reachable {
				t.Errorf("%s is named by non-test code now: drop it from internalOnlyTests", d.name)
			}
			continue
		}
		if !reachable {
			dead = append(dead, d.pos.String()+": "+d.name)
		}
	}
	for name := range internalOnlyTests {
		if !seen[name] {
			t.Errorf("internalOnlyTests lists %s, which no longer exists", name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no non-test file names it — give it a caller, move it into the _test.go that uses it, or delete it", d)
	}
}

func TestRootAPIHasCallers(t *testing.T) {
	rootFile := func(path string) bool { return !strings.Contains(path, "/") }
	decls, _ := scanGo(t,
		func(path string) bool { return rootFile(path) && !isTest(path) },
		func(string) bool { return true })
	_, uses := scanGo(t,
		func(path string) bool {
			return isTest(path) || strings.HasPrefix(path, "cmd/")
		},
		func(string) bool { return false })
	for _, d := range decls {
		if ast.IsExported(d.bare) && strings.Count(d.name, ".") == 1 && uses[d.bare] == 0 {
			t.Errorf("%s: exported %s has no test, example or binary that names it", d.pos, d.name)
		}
	}
}

func TestMainPackagesAreCommands(t *testing.T) {
	fset := token.NewFileSet()
	walkGo(t, func(path string) error {
		if strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "benchmark/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			t.Errorf("%s: package main outside cmd/ — make it a command, an Example in a _test.go file, or delete it", path)
		}
		return nil
	})
}

func TestFuzzTargetsAreFuzzed(t *testing.T) {
	fuzzFile := func(p string) bool { return isTest(p) && !strings.HasPrefix(p, "benchmark/") }
	decls, _ := scanGo(t, fuzzFile, fuzzFile)
	declared := map[string]bool{}
	for _, d := range decls {
		if strings.HasPrefix(d.bare, "Fuzz") && strings.Count(d.name, ".") == 1 {
			dir := path.Dir(d.pos.Filename)
			if dir != "." {
				dir = "./" + dir
			}
			declared[dir+" "+d.bare] = true
		}
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, _ := strings.Cut(string(makefile), "\nfuzz:\n")
	fuzzed := map[string]bool{}
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		// $(GO) test <package> -fuzz <target> -fuzztime <d>
		f := strings.Fields(line)
		if len(f) < 5 || f[1] != "test" || f[3] != "-fuzz" {
			t.Fatalf("Makefile fuzz recipe line %q is not `$(GO) test <package> -fuzz <target> ...`", line)
		}
		fuzzed[f[2]+" "+strings.TrimSuffix(strings.Trim(f[4], "'"), "$$")] = true
	}
	for target := range declared {
		if !fuzzed[target] {
			t.Errorf("fuzz target %s is not in the Makefile's fuzz recipe", target)
		}
	}
	for target := range fuzzed {
		if !declared[target] {
			t.Errorf("the Makefile's fuzz recipe fuzzes %s, which no _test.go file declares", target)
		}
	}
	if len(declared) == 0 {
		t.Error("no fuzz targets found")
	}
}
