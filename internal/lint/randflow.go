package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// RandFlow enforces the single-root randomness contract module-wide:
// every stream must provably derive from the seeded internal/rng root.
// It makes three precise, module-wide checks:
//
//  1. No math/rand, math/rand/v2, or crypto/rand anywhere in the module —
//     imports (including test files, syntactically) and resolved calls
//     (type-checked files, so laundering through a renamed import or a
//     helper in a "free" package is still caught).
//  2. The seed handed to internal/rng's constructors (New, NewStream)
//     must not derive from the wall clock or a forbidden generator,
//     whether inline (`rng.New(uint64(time.Now().UnixNano()))`) or
//     transitively, through helpers in cmd/ or internal/serving.
//  3. An rng stream is not safe for concurrent use: a *rng.Source
//     referenced from two goroutines (or from a goroutine and its parent)
//     is flagged. The sanctioned pattern is Split(): derive a child per
//     goroutine before launching it.
var RandFlow = &Analyzer{
	Name:      "randflow",
	Doc:       "all randomness derives from the seeded internal/rng root: no math/rand or crypto/rand anywhere, no tainted seeds, no stream shared across goroutines",
	RunModule: runRandFlow,
}

// forbiddenRandImports are the generators that would silently break
// seed-determinism (math/rand family) or are non-deterministic by design
// (crypto/rand).
var forbiddenRandImports = []string{"math/rand", "math/rand/v2", "crypto/rand"}

// rngSourceType identifies the module's stream type and its roots.
const (
	rngPkgPath    = "repro/internal/rng"
	rngSourceName = "Source"
)

var rngRootConstructors = []string{"New", "NewStream"}

func runRandFlow(mp *ModulePass) {
	for _, pkg := range mp.Mod.Pkgs {
		randFlowImports(mp, pkg)
		if pkg.Info == nil || pkg.Info.Uses == nil {
			continue
		}
		randFlowCalls(mp, pkg)
	}
	randFlowSeeds(mp)
	for _, fn := range mp.Mod.callGraph().Funcs {
		if _, ok := fn.Node.(*ast.FuncDecl); ok {
			randFlowSharing(mp, fn)
		}
	}
}

// randFlowImports flags forbidden generator imports, test files included:
// a test seeding from math/rand is as non-reproducible as library code.
func randFlowImports(mp *ModulePass, pkg *Package) {
	for _, f := range append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...) {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, bad := range forbiddenRandImports {
				if path == bad {
					mp.Reportf(imp.Pos(), "import of %s in %s; every stream must derive from the seeded internal/rng root so one integer seed reproduces the run", path, pkg.Path)
				}
			}
		}
	}
}

// randFlowCalls flags resolved calls into the forbidden generators — this
// catches renamed imports and dot-imports the syntactic check would miss,
// and gives a finding at the use site rather than only the import line.
func randFlowCalls(mp *ModulePass, pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := staticCallee(pkg.Info, call)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			for _, bad := range forbiddenRandImports {
				if obj.Pkg().Path() == bad {
					mp.Reportf(call.Pos(), "call to %s.%s; draw from internal/rng (Split a child stream if you need independence) so the run stays seed-reproducible", bad, obj.Name())
				}
			}
			return true
		})
	}
}

// randFlowSeeds taints values derived from the wall clock or a forbidden
// generator and reports any that reach an internal/rng constructor seed.
func randFlowSeeds(mp *ModulePass) {
	runTaint(mp, &taintConfig{
		isSource: func(info *types.Info, call *ast.CallExpr) (string, bool) {
			if desc, ok := wallClockCall(info, call); ok {
				return desc, true
			}
			if obj := staticCallee(info, call); obj != nil && obj.Pkg() != nil {
				for _, bad := range forbiddenRandImports {
					if obj.Pkg().Path() == bad {
						return bad + "." + obj.Name(), true
					}
				}
			}
			return "", false
		},
		callSink: func(info *types.Info, call *ast.CallExpr) (string, bool) {
			obj := staticCallee(info, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != rngPkgPath {
				return "", false
			}
			for _, name := range rngRootConstructors {
				if obj.Name() == name {
					return "the rng root seed (rng." + name + ")", true
				}
			}
			return "", false
		},
		report: func(src *taintSource, sinkPos token.Pos, sink string) {
			mp.Reportf(src.pos, "%s value flows into %s at %s; the rng root must be seeded from a fixed or flag-provided integer so the run is reproducible", src.desc, sink, mp.Position(sinkPos))
		},
	})
}

// randFlowSharing flags an rng stream reachable from two goroutines
// within one declared function: referenced inside two `go` statements, or
// inside one while also used by the spawning code. Arguments of a go call
// are evaluated synchronously, so an ident buried in an argument
// expression (src.Split()) counts as parent-side use; only the whole
// ident passed as an argument, the call's receiver, or any use inside a
// launched closure body crosses into the goroutine.
func randFlowSharing(mp *ModulePass, fn *FuncNode) {
	decl := fn.Node.(*ast.FuncDecl)
	info := fn.Pkg.Info

	// goUses[obj] = distinct go statements referencing obj concurrently.
	goUses := map[types.Object][]*ast.GoStmt{}
	var goOrder []types.Object // deterministic report order
	inGo := map[types.Object]map[*ast.GoStmt]bool{}
	record := func(obj types.Object, g *ast.GoStmt) {
		if inGo[obj] == nil {
			inGo[obj] = map[*ast.GoStmt]bool{}
		}
		if !inGo[obj][g] {
			inGo[obj][g] = true
			if len(goUses[obj]) == 0 {
				goOrder = append(goOrder, obj)
			}
			goUses[obj] = append(goUses[obj], g)
		}
	}

	var goRegions []*ast.GoStmt
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		goRegions = append(goRegions, g)
		call := g.Call
		// Whole-ident arguments are handed to the goroutine.
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && isRngSource(obj.Type()) {
					record(obj, g)
				}
			}
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.FuncLit:
			// Every stream ident inside the closure body runs concurrently.
			ast.Inspect(fun.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && isRngSource(obj.Type()) {
						record(obj, g)
					}
				}
				return true
			})
		case *ast.SelectorExpr:
			// go src.Method(...): the receiver crosses.
			if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && isRngSource(obj.Type()) {
					record(obj, g)
				}
			}
		}
		return true
	})
	if len(goOrder) == 0 {
		return
	}

	// Parent-side uses: stream idents outside every launched-closure body.
	parentUse := map[types.Object]token.Pos{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !isRngSource(obj.Type()) {
			return true
		}
		for _, g := range goRegions {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				if id.Pos() >= lit.Body.Pos() && id.Pos() < lit.Body.End() {
					return true // concurrent use, already recorded
				}
			}
			// The whole-ident argument form is a hand-off, not a parent use.
			for _, arg := range g.Call.Args {
				if ast.Unparen(arg) == ast.Node(id) {
					return true
				}
			}
			if sel, ok := ast.Unparen(g.Call.Fun).(*ast.SelectorExpr); ok && ast.Unparen(sel.X) == ast.Node(id) {
				return true
			}
		}
		if _, seen := parentUse[obj]; !seen {
			parentUse[obj] = id.Pos()
		}
		return true
	})

	for _, obj := range goOrder {
		gs := goUses[obj]
		switch {
		case len(gs) > 1:
			mp.Reportf(gs[1].Pos(), "rng stream %s is used by %d goroutines in %s; a Source is not concurrency-safe and shared draws destroy determinism — Split() a child per goroutine", obj.Name(), len(gs), fn.ID)
		default:
			if _, ok := parentUse[obj]; ok {
				mp.Reportf(gs[0].Pos(), "rng stream %s is used by this goroutine and by its parent in %s; Split() a child for the goroutine so both sequences stay deterministic", obj.Name(), fn.ID)
			}
		}
	}
}

// isRngSource reports whether t is rng.Source or *rng.Source.
func isRngSource(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	// Match the real module path and the fixture module's equivalent.
	path := named.Obj().Pkg().Path()
	return named.Obj().Name() == rngSourceName &&
		(path == rngPkgPath || strings.HasSuffix(path, "/internal/rng"))
}
