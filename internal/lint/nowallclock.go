package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallClockAllowedPkgs are module-relative subtrees where reading the wall
// clock is legitimate: the serving stack (uptime, latency metrics) and the
// CLIs (progress reporting). Everything else — models, simulator,
// experiments — must be a pure function of its seed so artifacts are
// byte-reproducible.
var wallClockAllowedPkgs = []string{
	"internal/serving",
	"cmd",
}

// wallClockAllowedFiles are single files outside the allowed packages
// that form a sanctioned clock boundary: internal/obs/clock.go stamps
// trace spans and stopwatches at the moment of measurement, exporting
// only opaque values that collapse to Durations, so the rest of the
// observability layer (and the clock-restricted packages using it)
// never hold a time.Time. The list is pinned by
// TestWallClockAllowedFilesFrozen, exactly like the package list.
var wallClockAllowedFiles = []string{
	"internal/obs/clock.go",
}

// wallClockFuncs are the time-package functions that observe the clock.
var wallClockFuncs = []string{"Now", "Since", "Until"}

// wallClockCall reports whether call reads the wall clock, and names the
// function it calls ("time.Now"). nowallclock, clockflow and randflow
// all classify clock reads with it.
func wallClockCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	for _, fn := range wallClockFuncs {
		if isPkgFunc(info, call, "time", fn) {
			return "time." + fn, true
		}
	}
	return "", false
}

// NoWallClock forbids time.Now / time.Since / time.Until outside
// internal/serving and cmd/, keeping experiment artifacts seed-deterministic.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "no wall-clock reads outside internal/serving and cmd/; experiment output must be a function of the seed",
	Run:  runNoWallClock,
}

func runNoWallClock(pass *Pass) {
	rel := pass.RelPath()
	for _, p := range wallClockAllowedPkgs {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return
		}
	}
	if pass.Info == nil || pass.Info.Uses == nil {
		return
	}
	for _, f := range pass.Files {
		if wallClockFileAllowed(rel, pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := wallClockCall(pass.Info, call); ok {
				pass.Reportf(call.Pos(), "%s in %s reads the wall clock; only internal/serving and cmd/ may observe real time", name, pass.PkgPath)
			}
			return true
		})
	}
}

// wallClockFileAllowed reports whether f is one of the pinned
// single-file clock boundaries (matched as "<pkg rel path>/<base>").
func wallClockFileAllowed(rel string, pass *Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	key := rel + "/" + name
	for _, allowed := range wallClockAllowedFiles {
		if key == allowed {
			return true
		}
	}
	return false
}
