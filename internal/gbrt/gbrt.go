// Package gbrt implements least-squares gradient-boosted regression trees
// (Friedman's LS_Boost with shrinkage and optional row subsampling), used
// as an "existing ML methods" baseline against the two-level model.
package gbrt

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/tree"
)

// Params configures boosting.
type Params struct {
	Rounds    int     // number of boosting stages (default 200)
	Shrinkage float64 // learning rate in (0, 1] (default 0.1)
	Subsample float64 // row fraction per stage in (0, 1]; 1 disables (default 1)
	MaxDepth  int     // depth of each weak tree (default 3)
	MinLeaf   int     // minimum samples per leaf (default 5)
}

// Defaults returns the baseline configuration used in the experiments.
func Defaults() Params {
	return Params{Rounds: 200, Shrinkage: 0.1, Subsample: 1, MaxDepth: 3, MinLeaf: 5}
}

func (p Params) withDefaults() Params {
	d := Defaults()
	if p.Rounds <= 0 {
		p.Rounds = d.Rounds
	}
	if p.Shrinkage <= 0 || p.Shrinkage > 1 {
		p.Shrinkage = d.Shrinkage
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = d.Subsample
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = d.MaxDepth
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = d.MinLeaf
	}
	return p
}

// Model is a fitted gradient-boosted ensemble.
type Model struct {
	Base      float64      `json:"base"` // initial prediction (target mean)
	Shrinkage float64      `json:"shrinkage"`
	Trees     []*tree.Tree `json:"trees"`
	Features  int          `json:"features"`
}

// Fit trains a GBRT model. r is needed only when Subsample < 1 (it may be
// nil otherwise).
func Fit(x *mat.Dense, y []float64, p Params, r *rng.Source) *Model {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("gbrt: %d rows vs %d targets", x.Rows, len(y)))
	}
	if x.Rows == 0 {
		panic("gbrt: empty training set")
	}
	p = p.withDefaults()
	if p.Subsample < 1 && r == nil {
		panic("gbrt: Subsample < 1 requires a random source")
	}

	var base float64
	for _, v := range y {
		base += v
	}
	base /= float64(len(y))

	m := &Model{Base: base, Shrinkage: p.Shrinkage, Features: x.Cols}
	resid := make([]float64, len(y))
	cur := make([]float64, len(y))
	for i := range cur {
		cur[i] = base
	}

	tp := tree.Defaults()
	tp.MaxDepth = p.MaxDepth
	tp.MinLeafSamples = p.MinLeaf

	nSub := int(p.Subsample * float64(x.Rows))
	if nSub < 1 {
		nSub = 1
	}

	// One Fitter across all rounds: the workspace arena is reused and the
	// per-feature presort of x is computed once, not once per stage.
	ft := tree.NewFitter()
	m.Trees = make([]*tree.Tree, 0, p.Rounds)
	for round := 0; round < p.Rounds; round++ {
		for i := range resid {
			resid[i] = y[i] - cur[i]
		}
		var t *tree.Tree
		if p.Subsample < 1 {
			idx := r.Sample(x.Rows, nSub)
			t = ft.FitIndices(x, resid, idx, tp, nil)
		} else {
			t = ft.Fit(x, resid, tp, nil)
		}
		m.Trees = append(m.Trees, t)
		for i := 0; i < x.Rows; i++ {
			cur[i] += p.Shrinkage * t.Predict(x.Row(i))
		}
	}
	return m
}

// Predict evaluates the ensemble on feature vector v.
func (m *Model) Predict(v []float64) float64 {
	if len(v) != m.Features {
		panic(fmt.Sprintf("gbrt: predict with %d features, model has %d", len(v), m.Features))
	}
	s := m.Base
	for _, t := range m.Trees {
		s += m.Shrinkage * t.Predict(v)
	}
	return s
}
