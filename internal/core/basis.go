package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linmod"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/scalefit"
)

// fitBasis trains the basis extrapolation backend: per cluster, a
// multitask lasso whose tasks are the cluster's configurations and whose
// design matrix is the scalability basis evaluated at the small scales;
// its L2,1 penalty selects one shared set of basis terms per cluster.
// Needs no large-scale history at all.
func (m *TwoLevelModel) fitBasis(r *rng.Source, td trainData) error {
	cfg := m.Cfg
	n := len(td.params)

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	curves := m.extrapCurves(td, all)
	labels, nClusters := m.clusterCurves(r, curves)

	phi := designMatrix(cfg.Basis, cfg.SmallScales)
	m.ClusterModels = make([]ClusterModel, nClusters)
	for c := 0; c < nClusters; c++ {
		var member []int
		for i, l := range labels {
			if l == c {
				member = append(member, i)
			}
		}
		if len(member) == 0 {
			return fmt.Errorf("core: internal error: empty cluster %d after merging", c)
		}
		cm := fitBasisCluster(phi, curves, member, cfg)
		m.ClusterModels[c] = cm
	}
	return nil
}

// designMatrix evaluates the basis at each scale: rows = scales, cols = terms.
func designMatrix(basis []scalefit.Term, scales []int) *mat.Dense {
	phi := mat.NewDense(len(scales), len(basis))
	for i, s := range scales {
		row := phi.Row(i)
		for j, t := range basis {
			row[j] = t.Eval(float64(s))
		}
	}
	return phi
}

// fitBasisCluster runs the multitask lasso over one cluster's curves
// (tasks = configurations, samples = small scales) and extracts the shared
// basis support. Curves are shape-normalized (divided by their first
// point) so selection is not dominated by long-running configurations.
func fitBasisCluster(phi *mat.Dense, curves *mat.Dense, member []int, cfg Config) ClusterModel {
	k := phi.Rows
	tasks := len(member)
	y := mat.NewDense(k, tasks)
	for t, idx := range member {
		row := curves.Row(idx)
		base := row[0]
		if base <= 0 {
			base = 1e-12
		}
		for si := 0; si < k; si++ {
			y.Set(si, t, row[si]/base)
		}
	}
	if cfg.SingleTask {
		// Ablation: no shared selection — nil Support marks "select per
		// curve at prediction time".
		return ClusterModel{Support: nil, Lambda: cfg.Lambda, Size: tasks}
	}

	lambda := cfg.Lambda
	if lambda <= 0 {
		lambda = selectBasisLambda(phi, y, cfg)
	}
	mt := linmod.MultiTaskLasso(phi, y, lambda, cfg.Lasso)
	support := mt.ActiveFeatures()
	if len(support) == 0 {
		support = []int{amdahlIndex(cfg.Basis)}
	}
	if len(support) > cfg.MaxTerms {
		support = topTermsByNorm(mt, support, cfg.MaxTerms)
	}
	sort.Ints(support)
	return ClusterModel{Support: support, Lambda: lambda, Size: tasks}
}

// selectBasisLambda picks the multitask-lasso strength by leave-the-
// largest-small-scale-out validation: fit on the first k-1 scales, score
// the relative error predicting the held-out largest scale across all
// tasks — the closest available proxy to the extrapolation the model
// will do.
func selectBasisLambda(phi, y *mat.Dense, cfg Config) float64 {
	k := phi.Rows
	phiTrain := gatherRows(phi, seq(k-1))
	yTrain := gatherRows(y, seq(k-1))
	top := linmod.MultiTaskLambdaMax(phiTrain, yTrain)
	if top <= 0 {
		top = 1e-6
	}
	lambdas := lambdaGrid(top, cfg.CVLambdas)
	bestLam, bestErr := top, math.Inf(1)
	heldout := phi.Row(k - 1)
	for g, mt := range linmod.MultiTaskLassoPath(phiTrain, yTrain, lambdas, cfg.Lasso) {
		var errSum float64
		for t := 0; t < y.Cols; t++ {
			pred := mt.PredictTask(heldout, t)
			truth := y.At(k-1, t)
			if truth == 0 {
				truth = 1e-12
			}
			rel := (pred - truth) / truth
			errSum += rel * rel
		}
		if errSum < bestErr {
			bestErr, bestLam = errSum, lambdas[g]
		}
	}
	return bestLam
}

// lambdaGrid returns n log-spaced lambdas from top down to top·1e-3
// (just top when n is 1), the grid the basis backend's lambda selection
// walks.
func lambdaGrid(top float64, n int) []float64 {
	out := make([]float64, n)
	for g := range out {
		var f float64
		if n > 1 {
			f = float64(g) / float64(n-1)
		}
		out[g] = top * math.Pow(1e-3, f)
	}
	return out
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// topTermsByNorm keeps the maxTerms support entries with the largest
// coefficient-row L2 norms.
func topTermsByNorm(mt *linmod.MultiTaskModel, support []int, maxTerms int) []int {
	type scored struct {
		idx  int
		norm float64
	}
	sc := make([]scored, len(support))
	for i, j := range support {
		sc[i] = scored{idx: j, norm: mat.Norm2(mt.Coef.Row(j))}
	}
	sort.Slice(sc, func(a, b int) bool { return sc[a].norm > sc[b].norm })
	out := make([]int, maxTerms)
	for i := 0; i < maxTerms; i++ {
		out[i] = sc[i].idx
	}
	return out
}

// amdahlIndex locates the 1/p term in the basis (index 0 if absent).
func amdahlIndex(basis []scalefit.Term) int {
	for i, t := range basis {
		if t.A == -1 && t.B == 0 {
			return i
		}
	}
	return 0
}

// predictBasisAt extrapolates a small-scale curve to one scale using
// cluster c's shared basis support: the curve's shape is refitted
// non-negatively on [1, selected terms] and the fit evaluated at scale.
func (m *TwoLevelModel) predictBasisAt(c int, curve []float64, scale int) float64 {
	if scale < 1 {
		panic(fmt.Sprintf("core: scale %d < 1", scale))
	}
	k := len(m.Cfg.SmallScales)
	base := curve[0]
	if base <= 0 {
		base = 1e-12
	}
	shape := make([]float64, k)
	for i, v := range curve {
		shape[i] = v / base
	}
	support := m.ClusterModels[c].Support
	if support == nil { // single-task ablation
		support = m.selectSupportForCurve(shape)
	}
	coef := fitRestricted(m.Cfg.Basis, m.Cfg.SmallScales, support, shape)
	pred := coef[0]
	for i, j := range support {
		pred += coef[i+1] * m.Cfg.Basis[j].Eval(float64(scale))
	}
	v := pred * base
	if floor := base * 1e-6; v < floor {
		// A scalability model extrapolating to ~zero is a fit artifact;
		// clamp to a vanishing fraction of the base runtime.
		v = floor
	}
	return v
}

// fitRestricted solves the NON-NEGATIVE least-squares fit of [1, basis
// terms in support] to the shape curve. Non-negativity encodes the
// physical decomposition — serial fraction, parallel work, communication
// growth all contribute cost, never negative cost — and keeps the fitted
// model from diverging when evaluated far beyond the small scales.
func fitRestricted(basis []scalefit.Term, scales, support []int, shape []float64) []float64 {
	k := len(scales)
	a := mat.NewDense(k, len(support)+1)
	for i, s := range scales {
		row := a.Row(i)
		row[0] = 1
		for jj, j := range support {
			row[jj+1] = basis[j].Eval(float64(s))
		}
	}
	return mat.NNLS(a, shape)
}

// selectSupportForCurve runs a per-curve lasso over the full basis (the
// single-task ablation's selection), using a fixed or quickly validated
// lambda: the one-task multitask lasso on the n×1 shape curve. The
// support is the non-zero coefficient rows, ranked by |coefficient|.
func (m *TwoLevelModel) selectSupportForCurve(shape []float64) []int {
	phi := designMatrix(m.Cfg.Basis, m.Cfg.SmallScales)
	k := phi.Rows
	y := &mat.Dense{Rows: k, Cols: 1, Data: shape}
	lambda := m.Cfg.Lambda
	if lambda <= 0 {
		phiTrain := gatherRows(phi, seq(k-1))
		yTrain := &mat.Dense{Rows: k - 1, Cols: 1, Data: shape[:k-1]}
		top := linmod.MultiTaskLambdaMax(phiTrain, yTrain)
		if top <= 0 {
			top = 1e-6
		}
		lambdas := lambdaGrid(top, m.Cfg.CVLambdas)
		best, bestErr := top, math.Inf(1)
		for g, mdl := range linmod.MultiTaskLassoPath(phiTrain, yTrain, lambdas, m.Cfg.Lasso) {
			rel := (mdl.PredictTask(phi.Row(k-1), 0) - shape[k-1]) / shape[k-1]
			if e := rel * rel; e < bestErr {
				bestErr, best = e, lambdas[g]
			}
		}
		lambda = best
	}
	mdl := linmod.MultiTaskLasso(phi, y, lambda, m.Cfg.Lasso)
	support := mdl.ActiveFeatures()
	if len(support) == 0 {
		support = []int{amdahlIndex(m.Cfg.Basis)}
	}
	if len(support) > m.Cfg.MaxTerms {
		support = topTermsByNorm(mdl, support, m.Cfg.MaxTerms)
		sort.Ints(support)
	}
	return support
}
