package lint_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// The fixture checker shares one FileSet and one source importer so the
// standard library is type-checked once per test binary, not once per
// fixture. go/types is not safe for concurrent use with a shared
// importer, so loads are serialized.
var (
	fixMu   sync.Mutex
	fixFset = token.NewFileSet()
	fixImp  types.Importer
)

// loadFixture parses and type-checks every .go file under testdata/<dir>
// as one package with the given import path.
func loadFixture(t *testing.T, dir, pkgPath string) *lint.Package {
	t.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if fixImp == nil {
		fixImp = importer.ForCompiler(fixFset, "source", nil)
	}
	full := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &lint.Package{Path: pkgPath, Dir: full}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fixFset, filepath.Join(full, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: fixImp}
	tpkg, err := conf.Check(pkgPath, fixFset, pkg.Files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg
}

// runFixture runs one analyzer over a fixture package (through lint.Run,
// so //lint:allow suppression is exercised) and returns findings keyed
// "basename.go:line".
func runFixture(t *testing.T, a *lint.Analyzer, dir, pkgPath string) map[string][]string {
	t.Helper()
	pkg := loadFixture(t, dir, pkgPath)
	mod := &lint.Module{Path: "repro", Fset: fixFset, Pkgs: []*lint.Package{pkg}}
	got := map[string][]string{}
	for _, d := range lint.Run(mod, []*lint.Analyzer{a}) {
		key := filepath.Base(d.Pos.Filename) + ":" + strconv.Itoa(d.Pos.Line)
		got[key] = append(got[key], d.Message)
	}
	return got
}

var wantRe = regexp.MustCompile(`//\s*want\s+([a-z]+(?: [a-z]+)*)`)

// wantLines scans a fixture directory for `// want <analyzer>...` markers
// (one marker may name several space-separated analyzers) and returns the
// expected "basename.go:line" keys for that analyzer.
func wantLines(t *testing.T, dir, analyzer string) map[string]bool {
	t.Helper()
	full := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(full, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Fields(m[1]) {
					if name == analyzer {
						want[e.Name()+":"+strconv.Itoa(i+1)] = true
					}
				}
			}
		}
	}
	return want
}

// checkFixture asserts that an analyzer fires exactly on the want-marked
// lines of its fixture and nowhere else.
func checkFixture(t *testing.T, a *lint.Analyzer, dir, pkgPath string) {
	t.Helper()
	got := runFixture(t, a, dir, pkgPath)
	want := wantLines(t, dir, a.Name)
	for key := range want {
		if len(got[key]) == 0 {
			t.Errorf("%s: expected a %s finding at %s, got none", dir, a.Name, key)
		}
	}
	for key, msgs := range got {
		if !want[key] {
			t.Errorf("%s: unexpected %s finding at %s: %v", dir, a.Name, key, msgs)
		}
	}
}

func TestRandFlowImportAndCallBan(t *testing.T) {
	// The ban is module-wide — randflow flags forbidden imports and calls
	// under ANY package path, cmd/ included.
	for _, path := range []string{"repro/internal/tree", "repro/cmd/tool"} {
		checkFixture(t, lint.RandFlow, "randflow", path)
	}
}

func TestNoWallClockFixture(t *testing.T) {
	checkFixture(t, lint.NoWallClock, "nowallclock", "repro/internal/experiments")
}

func TestNoWallClockAllowedPackages(t *testing.T) {
	for _, path := range []string{"repro/internal/serving", "repro/cmd/experiment"} {
		if got := runFixture(t, lint.NoWallClock, "nowallclock", path); len(got) != 0 {
			t.Errorf("nowallclock fired in allowed package %s: %v", path, got)
		}
	}
}

func TestFloatEqFixture(t *testing.T) {
	checkFixture(t, lint.FloatEq, "floateq", "repro/internal/mat")
}

func TestMapIterOrderFixture(t *testing.T) {
	checkFixture(t, lint.MapIterOrder, "mapiterorder", "repro/internal/experiments")
}

func TestErrIgnoreFixture(t *testing.T) {
	checkFixture(t, lint.ErrIgnore, "errignore", "repro/internal/core")
}

func TestGoroutineShareFixture(t *testing.T) {
	checkFixture(t, lint.GoroutineShare, "goroutineshare", "repro/internal/forest")
}
