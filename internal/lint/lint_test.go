package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

// TestRepositoryClean is the enforcement half of the suite: the module's
// own tree must produce zero findings, so introducing a violation (or
// deleting a required //lint:allow justification) fails `go test ./...`
// directly, independent of the `make lint` wiring.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load is slow; covered by make lint")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "repro" {
		t.Fatalf("unexpected module path %q — is the test running inside the repo?", mod.Path)
	}
	if len(mod.Pkgs) < 20 {
		t.Fatalf("only %d packages loaded; loader is missing the tree", len(mod.Pkgs))
	}
	for _, d := range lint.Run(mod, lint.All()) {
		t.Errorf("%s", d)
	}
	// Audit cleanliness is part of the gate: every //lint:allow in the
	// tree must still suppress a live finding. A stale directive is a
	// deleted invariant pretending to be an accepted one.
	for _, d := range lint.Audit(mod) {
		t.Errorf("%s", d)
	}
}

func TestAnalyzerNamesAreUniqueAndDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("malformed analyzer %+v", a)
		}
		// Exactly one of the two shapes: per-package or module-scoped.
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %s must set exactly one of Run and RunModule", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 7 {
		t.Errorf("suite has %d analyzers, want 7", len(seen))
	}
	if lint.AuditAnalyzerName != "allowaudit" || seen[lint.AuditAnalyzerName] {
		t.Errorf("the audit pseudo-analyzer must stay outside the suite (cannot be suppressed)")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "floateq", Message: "m"}
	d.Pos.Filename = "x.go"
	d.Pos.Line, d.Pos.Column = 3, 7
	if got, want := d.String(), "x.go:3:7: [floateq] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
