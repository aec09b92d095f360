package core

import (
	"fmt"
	"math"

	"repro/internal/linmod"
	"repro/internal/mat"
	"repro/internal/rng"
)

// fitAnchored trains the anchored extrapolation backend: per cluster, a
// multitask lasso mapping (log) small-scale prediction vectors to (log)
// large-scale runtimes, tasks = target scales, training rows = anchor
// configurations assigned to the cluster.
func (m *TwoLevelModel) fitAnchored(r *rng.Source, td trainData) error {
	cfg := m.Cfg
	nA := len(td.anchorIdx)

	feat := m.extrapCurves(td, td.anchorIdx)
	targets := mat.NewDense(nA, len(cfg.LargeScales))
	for a := range td.anchorIdx {
		copy(targets.Row(a), td.large[a])
	}

	labels, nClusters := m.clusterCurves(r, feat)

	m.ClusterModels = make([]ClusterModel, nClusters)
	for c := 0; c < nClusters; c++ {
		var idx []int
		for i, l := range labels {
			if l == c {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return fmt.Errorf("core: internal error: empty cluster %d after merging", c)
		}
		fx := gatherRows(feat, idx)
		fy := gatherRows(targets, idx)
		if cfg.LogTransform {
			logInPlace(fx)
			logInPlace(fy)
		}
		cm := fitAnchoredCluster(r, fx, fy, cfg)
		cm.Size = len(idx)
		m.ClusterModels[c] = cm
	}
	return nil
}

// fitAnchoredCluster fits one cluster's (already transformed) features
// and targets: the multitask lasso at cfg.Lambda, or cross-validated
// when it is 0.
func fitAnchoredCluster(r *rng.Source, fx, fy *mat.Dense, cfg Config) ClusterModel {
	folds := cfg.CVFolds
	if folds > fx.Rows {
		folds = fx.Rows
	}
	fit := func(y *mat.Dense) (*linmod.MultiTaskModel, float64) {
		if cfg.Lambda > 0 {
			return linmod.MultiTaskLasso(fx, y, cfg.Lambda, cfg.Lasso), cfg.Lambda
		}
		return linmod.CVMultiTaskLasso(r.Split(), fx, y, folds, cfg.CVLambdas, cfg.Lasso)
	}
	if !cfg.SingleTask {
		mdl, lam := fit(fy)
		return ClusterModel{Multi: mdl, Lambda: lam}
	}
	// Single-task ablation: one lasso per target scale, each with its
	// own lambda (and, under CV, its own folds), assembled column by
	// column into one p×T model. Iterations and Sweeps sum over the
	// tasks, Gap is the largest task's, and Lambda the last task's.
	mdl := &linmod.MultiTaskModel{
		Coef:      mat.NewDense(fx.Cols, fy.Cols),
		Intercept: make([]float64, fy.Cols),
		Tasks:     fy.Cols,
	}
	var lam float64
	for t := 0; t < fy.Cols; t++ {
		var one *linmod.MultiTaskModel
		one, lam = fit(&mat.Dense{Rows: fy.Rows, Cols: 1, Data: fy.Col(t)})
		for j := 0; j < fx.Cols; j++ {
			mdl.Coef.Set(j, t, one.Coef.At(j, 0))
		}
		mdl.Intercept[t] = one.Intercept[0]
		mdl.Iterations += one.Iterations
		mdl.Sweeps += one.Sweeps
		mdl.Gap = math.Max(mdl.Gap, one.Gap)
	}
	return ClusterModel{Multi: mdl, Lambda: lam}
}

// predictAnchored evaluates cluster c's anchored model on a small-scale
// curve, returning runtimes at every target scale.
func (m *TwoLevelModel) predictAnchoredInto(c int, curve, dst []float64) []float64 {
	features := curve
	if m.Cfg.LogTransform {
		var buf [curveBufSize]float64
		f := buf[:]
		if len(curve) <= curveBufSize {
			f = buf[:len(curve)]
		} else {
			f = make([]float64, len(curve))
		}
		for i, v := range curve {
			if v <= 0 {
				v = 1e-12
			}
			f[i] = math.Log(v)
		}
		features = f
	}
	m.ClusterModels[c].Multi.PredictInto(features, dst)
	if m.Cfg.LogTransform {
		for i, v := range dst {
			dst[i] = math.Exp(v)
		}
	}
	return dst
}

// logInPlace replaces every entry of x with its natural log, clamping
// non-positive values.
func logInPlace(x *mat.Dense) {
	for i, v := range x.Data {
		if v <= 0 {
			v = 1e-12
		}
		x.Data[i] = math.Log(v)
	}
}
