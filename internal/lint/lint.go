// Package lint is a project-specific static-analysis suite enforcing the
// invariants this reproduction depends on but that no generic tool checks:
//
//   - every stochastic component draws from the deterministic internal/rng
//     (never math/rand, crypto/rand, or wall-clock seeds), so a single
//     integer seed reproduces an entire experiment;
//   - reconstructed tables/figures are byte-reproducible run to run (no
//     wall-clock reads or map-iteration-ordered output on artifact paths);
//   - the linear-algebra kernels do not rely on exact float equality or
//     silently drop errors.
//
// The suite is built on the stdlib go/ast + go/parser + go/types loader
// (see load.go) so the module stays dependency-free. Each invariant is an
// Analyzer; cmd/repolint runs them all and `make lint` wires the suite
// into the tier-1 gate.
//
// Two analyzer shapes exist. Package-scoped analyzers (Run) see one
// type-checked package at a time. Module-scoped analyzers (RunModule) see
// the whole module at once and reason interprocedurally over the call
// graph (callgraph.go) and taint engine (taint.go): clockflow, randflow.
// goroutineshare is package-scoped but flow-aware within functions.
//
// # Escape hatch
//
// A finding that is intentional is suppressed with a directive comment
//
//	//lint:allow <analyzer> -- <one-line justification>
//
// placed either on the flagged line or alone on the line directly above
// it. The justification is mandatory by convention (reviewed, not
// machine-checked); the analyzer name must match exactly.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Diagnostic is one finding: an invariant violation at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Exactly one of Run (per-package)
// or RunModule (whole-module, interprocedural) is set.
type Analyzer struct {
	Name      string // short lowercase name, used in //lint:allow directives
	Doc       string // one-line description of the protected invariant
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass presents one package to one analyzer and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	ModPath  string // module path, e.g. "repro"
	PkgPath  string // full import path of the package under analysis
	Files    []*ast.File
	// TestFiles are parsed but NOT type-checked; only syntactic checks
	// (such as import inspection) may use them.
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RelPath returns the package path relative to the module root ("" for the
// root package). Analyzers use it to scope rules to package subtrees.
func (p *Pass) RelPath() string {
	if p.PkgPath == p.ModPath {
		return ""
	}
	return strings.TrimPrefix(p.PkgPath, p.ModPath+"/")
}

// ModulePass presents the whole module to one module-scoped analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Mod      *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Mod.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position renders pos module-relative ("internal/pipeline/journal.go:102")
// so messages are stable across checkouts.
func (p *ModulePass) Position(pos token.Pos) string {
	pp := p.Mod.Fset.Position(pos)
	name := pp.Filename
	if rel, err := filepath.Rel(p.Mod.Root, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", name, pp.Line)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoWallClock,
		FloatEq,
		MapIterOrder,
		ErrIgnore,
		ClockFlow,
		RandFlow,
		GoroutineShare,
	}
}

// ByName resolves a comma-separated analyzer list ("floateq,errignore").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty analyzer list")
	}
	return out, nil
}

// allowSite is one (directive, analyzer-name) pair: a directive naming two
// analyzers yields two sites. The audit (audit.go) reports sites that never
// suppress a finding.
type allowSite struct {
	pos  token.Position
	name string // analyzer name as written
	used bool   // set when the site suppresses at least one raw finding
}

// allowIndex holds every //lint:allow site of a module, in deterministic
// collection order, with a by-position lookup. A directive on line L
// suppresses findings on L (inline form) and on L+1 (standalone form).
type allowIndex struct {
	sites  []*allowSite
	byLine map[string]map[int][]*allowSite
}

const allowPrefix = "lint:allow"

// collectAllows scans the comments of files for //lint:allow directives,
// appending into idx (created when nil).
func collectAllows(idx *allowIndex, fset *token.FileSet, files []*ast.File) *allowIndex {
	if idx == nil {
		idx = &allowIndex{byLine: map[string]map[int][]*allowSite{}}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				text = strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				// Strip the justification: everything after "--" (or an
				// em dash) is prose for the reviewer.
				for _, sep := range []string{"--", "—"} {
					if i := strings.Index(text, sep); i >= 0 {
						text = text[:i]
					}
				}
				pos := fset.Position(c.Pos())
				m := idx.byLine[pos.Filename]
				if m == nil {
					m = map[int][]*allowSite{}
					idx.byLine[pos.Filename] = m
				}
				for _, name := range strings.FieldsFunc(text, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					site := &allowSite{pos: pos, name: name}
					idx.sites = append(idx.sites, site)
					m[pos.Line] = append(m[pos.Line], site)
				}
			}
		}
	}
	return idx
}

// suppress reports whether a diagnostic is covered by a directive on its
// own line or the line directly above, marking the covering sites used.
func (idx *allowIndex) suppress(d Diagnostic) bool {
	m := idx.byLine[d.Pos.Filename]
	if m == nil {
		return false
	}
	hit := false
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, site := range m[line] {
			if site.name == d.Analyzer {
				site.used = true
				hit = true
			}
		}
	}
	return hit
}
