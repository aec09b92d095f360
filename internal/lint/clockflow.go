package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ClockFlow is the interprocedural companion to nowallclock. nowallclock
// bans clock reads wholesale in pure packages; clockflow covers the
// packages that legitimately read the clock (internal/serving, cmd/) by
// tracing where each reading actually flows. A timestamp may feed logs,
// metrics, or latency histograms — but never a persisted artifact, or
// reruns of the pipeline stop being byte-identical and the paper's
// small-scale→large-scale extrapolation loses its reproducibility
// contract.
//
// Findings are reported at the SOURCE (the time.Now/Since/Until call), so
// the one sanctioned pattern — stamping at the CLI boundary — carries its
// //lint:allow where the clock is read, and every flow it feeds is
// covered by that single annotated decision.
var ClockFlow = &Analyzer{
	Name:      "clockflow",
	Doc:       "wall-clock values must not flow into persisted artifacts (model files, ModelMeta, pipeline journal/store, conformal calibration)",
	RunModule: runClockFlow,
}

// clockCallSinks are the calls that persist their arguments: a tainted
// argument or receiver means a clock value is being written to disk.
// Matched by defining package path + receiver type + name, so the fixture
// module (testdata/clockflow) exercises them with fake declarations under
// the same paths.
var clockCallSinks = []struct {
	pkg, recv, name, desc string
}{
	{"repro/internal/core", "TwoLevelModel", "Save", "the model file ((*TwoLevelModel).Save)"},
	{"repro/internal/core", "TwoLevelModel", "SaveSHA256", "the model file ((*TwoLevelModel).SaveSHA256)"},
	{"repro/internal/core", "TwoLevelModel", "Write", "the model stream ((*TwoLevelModel).Write)"},
	{"repro/internal/pipeline", "Journal", "Append", "the pipeline journal ((*Journal).Append)"},
	{"repro/internal/pipeline", "Store", "Append", "the run-record store ((*Store).Append)"},
	{"repro/internal/pipeline", "Store", "ImportTable", "the run-record store ((*Store).ImportTable)"},
}

// clockStructSinks are the persisted record types: assigning a clock-
// derived value to any of their fields (directly or in a composite
// literal) is a finding even before the value reaches disk.
var clockStructSinks = map[string]string{
	"repro/internal/core.ModelMeta":          "persisted model metadata (core.ModelMeta)",
	"repro/internal/pipeline.Entry":          "a pipeline journal entry (pipeline.Entry)",
	"repro/internal/pipeline.Record":         "a run-record store record (pipeline.Record)",
	"repro/internal/uncertainty.Calibration": "persisted conformal calibration (uncertainty.Calibration)",
	"repro/internal/uncertainty.ScaleCalib":  "persisted conformal score lists (uncertainty.ScaleCalib)",
}

func runClockFlow(mp *ModulePass) {
	runTaint(mp, &taintConfig{
		isSource:    wallClockCall,
		callSink:    matchCallSinks(clockCallSinks),
		structSinks: clockStructSinks,
		report: func(src *taintSource, sinkPos token.Pos, sink string) {
			mp.Reportf(src.pos, "%s value flows into %s at %s; persisted artifacts must be clock-free so reruns are byte-identical — derive the value from data, or annotate this boundary", src.desc, sink, mp.Position(sinkPos))
		},
	})
}

// matchCallSinks builds a callSink classifier from a (pkg, recv, name)
// table. recv "" matches package-level functions; otherwise the receiver's
// named type (pointer or value) must match.
func matchCallSinks(sinks []struct{ pkg, recv, name, desc string }) func(*types.Info, *ast.CallExpr) (string, bool) {
	return func(info *types.Info, call *ast.CallExpr) (string, bool) {
		obj := staticCallee(info, call)
		if obj == nil || obj.Pkg() == nil {
			return "", false
		}
		recvName := ""
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				recvName = n.Obj().Name()
			}
		}
		for _, s := range sinks {
			if obj.Pkg().Path() == s.pkg && obj.Name() == s.name && recvName == s.recv {
				return s.desc, true
			}
		}
		return "", false
	}
}
