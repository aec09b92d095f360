package lint_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// loadTestModule loads a self-contained mini-module under testdata/<dir>
// (its own go.mod declares `module repro`, so fixture sink paths like
// repro/internal/core resolve exactly like the real tree's).
func loadTestModule(t *testing.T, dir string) *lint.Module {
	t.Helper()
	mod, err := lint.LoadModule(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	return mod
}

// moduleWantLines recursively scans a fixture module for `// want
// <analyzer>...` markers, returning expected "basename.go:line" keys.
func moduleWantLines(t *testing.T, dir, analyzer string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	root := filepath.Join("testdata", dir)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Fields(m[1]) {
					if name == analyzer {
						want[filepath.Base(path)+":"+strconv.Itoa(i+1)] = true
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkModuleFixture asserts a module-scoped analyzer fires exactly on
// the want-marked lines of its fixture module and nowhere else.
func checkModuleFixture(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	mod := loadTestModule(t, dir)
	got := map[string][]string{}
	for _, d := range lint.Run(mod, []*lint.Analyzer{a}) {
		key := filepath.Base(d.Pos.Filename) + ":" + strconv.Itoa(d.Pos.Line)
		got[key] = append(got[key], d.Message)
	}
	want := moduleWantLines(t, dir, a.Name)
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

func TestClockFlowModuleFixture(t *testing.T) {
	checkModuleFixture(t, lint.ClockFlow, "flowmod")
}

func TestRandFlowModuleFixture(t *testing.T) {
	checkModuleFixture(t, lint.RandFlow, "flowmod")
}

// TestLongTaintChainReportsFlow: a clock read laundered across 13 call
// boundaries, and across 30, is reported at the read as a flow into each
// sink it reaches. The engine has no bound on call depth, so no chain,
// however long, passes silently.
func TestLongTaintChainReportsFlow(t *testing.T) {
	mod := loadTestModule(t, "flowmod")
	src, err := os.ReadFile(filepath.Join("testdata", "flowmod", "cmd", "tool", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	lineOf := func(text string) int {
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, text) {
				return i + 1
			}
		}
		t.Fatalf("fixture has no line containing %q", text)
		return 0
	}
	read := lineOf("func c13()")
	diags := lint.Run(mod, []*lint.Analyzer{lint.ClockFlow})
	for hops, sink := range map[int]string{13: "Entry{Time: c1()}", 30: "Entry{Time: d1()}"} {
		at := "cmd/tool/main.go:" + strconv.Itoa(lineOf(sink)) + ";"
		found := false
		for _, d := range diags {
			if filepath.Base(d.Pos.Filename) == "main.go" && d.Pos.Line == read && strings.Contains(d.Message, at) {
				found = true
			}
		}
		if !found {
			t.Errorf("the %d-hop chain into %s is not reported at the clock read (main.go:%d): %v", hops, at, read, diags)
		}
	}
}

// TestTaintChainsPastRoundCap: a clock read returned up a 200-call chain
// declared callers first, and a clock value passed down a 200-call chain
// of arguments, each into a journal entry, are reported as flows at the
// read. Rounds alternate callee-first and caller-first order, so neither
// chain costs a round per hop; walked in declaration order alone, the
// first would exhaust the 64-round cap and end in a give-up.
func TestTaintChainsPastRoundCap(t *testing.T) {
	const hops = 200
	dir := t.TempDir()
	var src strings.Builder
	src.WriteString("package main\n\nimport (\n\t\"time\"\n\n\t\"repro/internal/pipeline\"\n)\n\n")
	src.WriteString("func main() {\n\t_ = pipeline.Entry{Time: up1()}\n\tdown1(time.Now().String())\n}\n\n")
	for i := 1; i < hops; i++ {
		src.WriteString("func up" + strconv.Itoa(i) + "() string { return up" + strconv.Itoa(i+1) + "() }\n")
		src.WriteString("func down" + strconv.Itoa(i) + "(s string) { down" + strconv.Itoa(i+1) + "(s) }\n")
	}
	src.WriteString("func up" + strconv.Itoa(hops) + "() string { return time.Now().String() }\n")
	src.WriteString("func down" + strconv.Itoa(hops) + "(s string) { _ = pipeline.Entry{Time: s} }\n")
	files := map[string]string{
		"go.mod":                        "module repro\n\ngo 1.22\n",
		"internal/pipeline/pipeline.go": "package pipeline\n\n// Entry is a journal record.\ntype Entry struct{ Time string }\n",
		"cmd/tool/main.go":              src.String(),
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := lint.LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[int]bool{}
	for _, d := range lint.Run(mod, []*lint.Analyzer{lint.ClockFlow}) {
		if !strings.Contains(d.Message, "flows into a pipeline journal entry") {
			t.Errorf("unexpected finding: %s", d)
		}
		lines[d.Pos.Line] = true
	}
	// Line 11 is main's call of down1; up200, whose clock read is the
	// other source, is the next-to-last line.
	if up := strings.Count(src.String(), "\n") - 1; !lines[11] || !lines[up] || len(lines) != 2 {
		t.Errorf("findings at lines %v, want 11 and %d", lines, up)
	}
}

// TestCallGraphDeterminism loads the same module twice and demands
// byte-identical graph serializations — the substrate every module
// analyzer iterates, so this is the root of output stability.
func TestCallGraphDeterminism(t *testing.T) {
	a := loadTestModule(t, "flowmod")
	b := loadTestModule(t, "flowmod")
	sa := lint.BuildCallGraph(a).String(a.Fset)
	sb := lint.BuildCallGraph(b).String(b.Fset)
	if sa != sb {
		t.Fatalf("call graph serialization differs across loads:\n--- first\n%s\n--- second\n%s", sa, sb)
	}
	if !strings.Contains(sa, "repro/internal/rng.New") || !strings.Contains(sa, "$1") {
		t.Fatalf("graph is missing declared functions or literals:\n%s", sa)
	}
}

// TestFindingOrderDeterminism runs the full suite twice over fresh loads
// and demands byte-identical rendered findings.
func TestFindingOrderDeterminism(t *testing.T) {
	render := func() []byte {
		mod := loadTestModule(t, "flowmod")
		out, err := lint.FormatJSON(lint.Run(mod, lint.All()))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first, second := render(), render()
	if !bytes.Equal(first, second) {
		t.Fatalf("findings differ across runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if len(first) == 0 || string(first) == "[]\n" {
		t.Fatal("fixture module unexpectedly produced no findings")
	}
}

func TestAuditFlagsStaleAndUnknown(t *testing.T) {
	mod := loadTestModule(t, "flowmod")
	diags := lint.Audit(mod)
	var stale, unknown int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "stale //lint:allow floateq"):
			stale++
		case strings.Contains(d.Message, "unknown analyzer nosuchanalyzer"):
			unknown++
		case strings.Contains(d.Message, "lint:allow clockflow"):
			t.Errorf("audit flagged the live clockflow directive: %s", d)
		}
		if d.Analyzer != lint.AuditAnalyzerName {
			t.Errorf("audit finding with wrong analyzer label: %s", d)
		}
	}
	if stale != 1 || unknown != 1 || len(diags) != 2 {
		t.Fatalf("audit = %d findings (stale=%d unknown=%d), want exactly 1+1: %v", len(diags), stale, unknown, diags)
	}
}

func TestFormatJSON(t *testing.T) {
	if out, err := lint.FormatJSON(nil); err != nil || string(out) != "[]\n" {
		t.Fatalf("empty findings render %q, %v; want [] and a newline", out, err)
	}
	d := lint.Diagnostic{Analyzer: "floateq", Message: "a < b stays unescaped"}
	d.Pos.Filename = "internal/mat/matrix.go"
	d.Pos.Line, d.Pos.Column = 3, 7
	out, err := lint.FormatJSON([]lint.Diagnostic{d})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"analyzer": "floateq"`, `"file": "internal/mat/matrix.go"`, `"line": 3`, `"col": 7`, "a < b stays unescaped"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), `\u003c`) {
		t.Errorf("JSON output HTML-escapes source snippets:\n%s", out)
	}
}

func TestFormatSARIF(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "clockflow", Message: "m"}
	d.Pos.Filename = "cmd/pipeline/main.go"
	d.Pos.Line, d.Pos.Column = 65, 30
	out, err := lint.FormatSARIF([]lint.Diagnostic{d})
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{
		`"version": "2.1.0"`,
		`"name": "repolint"`,
		`"ruleId": "clockflow"`,
		`"uri": "cmd/pipeline/main.go"`,
		`"startLine": 65,`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("SARIF output missing %q:\n%s", want, s)
		}
	}
	// The rule table always carries the full suite plus the audit rule,
	// independent of which findings are present.
	for _, a := range lint.All() {
		if !strings.Contains(s, `"id": "`+a.Name+`"`) {
			t.Errorf("SARIF rule table missing %s", a.Name)
		}
	}
	if !strings.Contains(s, `"id": "`+lint.AuditAnalyzerName+`"`) {
		t.Error("SARIF rule table missing the audit pseudo-rule")
	}
	two, err := lint.FormatSARIF([]lint.Diagnostic{d})
	if err != nil || !bytes.Equal(out, two) {
		t.Error("SARIF output not byte-identical across calls")
	}
}
