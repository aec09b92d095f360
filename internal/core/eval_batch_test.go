package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hpcsim"
	"repro/internal/rng"
	"repro/internal/uncertainty"
)

// sameFloats reports whether a and b hold the same float bit patterns.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameEval reports whether two evaluations are bit-identical, the
// ensemble-band curves included.
func sameEval(a, b *Eval) bool {
	return a.Coverage == b.Coverage && a.Cluster == b.Cluster &&
		sameFloats(a.Small, b.Small) && sameFloats(a.Runtimes, b.Runtimes) &&
		sameFloats(a.lo, b.lo) && sameFloats(a.hi, b.hi)
}

// TestEvaluateBatchMatchesEvaluate: a batch evaluation is bit-identical
// to per-row Evaluate, which walks each forest one row at a time, and
// its point runtimes to Predict. Batch sizes 1–300 cross the kernel's
// 128-row block and every remainder of its four interleaved lanes; each
// batch is a different window of the rows, so every row sits in many
// lane and block positions. The grid covers both extrapolation
// backends, log and raw interpolation, coverage 0, 0.8 (certified by
// the calibration: the blocked walk) and 0.99 (not certified: the
// per-row quantile walk), with and without a calibration.
func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	const maxRows = 300
	rows := hpcsim.NewSMG().Space().SampleLatinHypercube(rng.New(77), maxRows)
	// Sizes around the lane width and the block; the production setup
	// (anchored, log interpolation, point predictions) walks every size
	// from 1 to maxRows.
	boundary := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127, 128, 129, 130, 131, 132, 255, 256, 257, 259, maxRows}
	for _, mode := range []Mode{ModeAnchored, ModeBasis} {
		for _, logInterp := range []bool{true, false} {
			cfg := smallCfg()
			cfg.Forest.Trees = 8
			cfg.Mode = mode
			cfg.NoLogInterpolation = !logInterp
			train, _ := simTables(t, 41, 40, 20, 1, cfg)
			m, err := Fit(rng.New(9), train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.Cfg.LogInterpolation != logInterp {
				t.Fatalf("LogInterpolation = %v, want %v", m.Cfg.LogInterpolation, logInterp)
			}
			scores := make([]float64, 30)
			for i := range scores {
				scores[i] = 0.2 + float64(i)*0.001
			}
			full := &uncertainty.Calibration{}
			for _, s := range m.Cfg.LargeScales {
				full.Pooled = append(full.Pooled, uncertainty.ScaleCalib{Scale: s, Scores: scores})
			}
			for _, cal := range []*uncertainty.Calibration{nil, full} {
				cm := *m
				cm.Meta.Calibration = cal
				for _, cov := range []float64{0, 0.8, 0.99} {
					name := fmt.Sprintf("%s/log=%v/calibrated=%v/coverage=%v", mode, logInterp, cal != nil, cov)
					t.Run(name, func(t *testing.T) {
						want := make([]Eval, maxRows)
						for i, row := range rows {
							want[i] = cm.Evaluate(row, cov)
							if cov == 0 && !sameFloats(want[i].Runtimes, cm.Predict(row)) {
								t.Fatalf("row %d: Evaluate runtimes %v != Predict %v", i, want[i].Runtimes, cm.Predict(row))
							}
						}
						sizes := boundary
						if mode == ModeAnchored && logInterp && cal == nil && cov == 0 {
							sizes = make([]int, maxRows)
							for n := range sizes {
								sizes[n] = n + 1
							}
						}
						for _, n := range sizes {
							off := (n * 37) % (maxRows - n + 1)
							got := make([]Eval, n)
							cm.EvaluateBatch(rows[off:off+n], cov, got)
							for i := range got {
								if !sameEval(&got[i], &want[off+i]) {
									t.Fatalf("batch of %d at offset %d, row %d: EvaluateBatch %+v != Evaluate %+v",
										n, off, i, got[i], want[off+i])
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestEvaluateBatchPanics: the batch path rejects what Evaluate rejects,
// and a dst that does not match the rows.
func TestEvaluateBatchPanics(t *testing.T) {
	m, probes := fitCompiled(t, ModeAnchored)
	for name, f := range map[string]func(){
		"coverage 1":    func() { m.EvaluateBatch(probes, 1, make([]Eval, len(probes))) },
		"short dst":     func() { m.EvaluateBatch(probes, 0, make([]Eval, 1)) },
		"short row":     func() { m.EvaluateBatch([][]float64{probes[0], probes[1][:2]}, 0, make([]Eval, 2)) },
		"short one row": func() { m.Evaluate(probes[0][:2], 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	m.EvaluateBatch(nil, 0, nil) // an empty batch is a no-op
}
