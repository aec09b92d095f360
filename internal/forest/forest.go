// Package forest implements a random-forest regressor over CART trees
// (bootstrap bagging plus per-node feature subsampling). The forest is the
// interpolation-level learner of the paper's two-level model: one forest is
// trained per small scale, mapping application input parameters to runtime
// at that scale.
//
// Training is embarrassingly parallel across trees; Fit fans the work out
// over a bounded worker pool, with deterministic results for a fixed seed
// regardless of GOMAXPROCS (each tree draws from its own pre-split RNG).
package forest

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/tree"
)

// Params configures a random forest. The zero value is not valid; use
// Defaults and override.
type Params struct {
	Trees int // number of trees
	// MaxFeatures per split; <= 0 selects max(1, p/2). Runtime surfaces
	// are products of a few strong parameters, so heavier feature
	// sampling (Breiman's p/3) starves splits of signal; p/2 measures
	// best on the workloads here.
	MaxFeatures int
	Tree        tree.Params // per-tree growth controls (MaxFeatures is overridden)
	// Workers bounds fitting parallelism; <= 0 means GOMAXPROCS.
	Workers int
}

// Defaults returns the forest configuration used across the experiments.
func Defaults() Params {
	return Params{
		Trees:       100,
		MaxFeatures: 0,
		Tree:        tree.Defaults(),
	}
}

// Forest is a fitted random-forest regressor.
type Forest struct {
	Trees    []*tree.Tree `json:"trees"`
	Features int          `json:"features"`
}

// Fit trains a forest on x, y using randomness from r.
func Fit(x *mat.Dense, y []float64, p Params, r *rng.Source) *Forest {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("forest: %d rows vs %d targets", x.Rows, len(y)))
	}
	if x.Rows == 0 {
		panic("forest: Fit on empty dataset")
	}
	if p.Trees <= 0 {
		p.Trees = Defaults().Trees
	}
	mf := p.MaxFeatures
	if mf <= 0 {
		mf = x.Cols / 2
		if mf < 1 {
			mf = 1
		}
	}
	tp := p.Tree
	tp.MaxFeatures = mf

	f := &Forest{
		Trees:    make([]*tree.Tree, p.Trees),
		Features: x.Cols,
	}

	// Pre-split one RNG per tree so the fit is deterministic under any
	// degree of parallelism.
	sources := make([]*rng.Source, p.Trees)
	for i := range sources {
		sources[i] = r.Split()
	}

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.Trees {
		workers = p.Trees
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one Fitter (workspace arena + presort
			// cache) and one bootstrap buffer for all the trees it grows,
			// so a fit allocates O(trees), not O(nodes·features).
			ft := tree.NewFitter()
			var boot []int
			for i := range next {
				src := sources[i]
				boot = src.Bootstrap(boot, x.Rows)
				f.Trees[i] = ft.FitIndices(x, y, boot, tp, src)
			}
		}()
	}
	for i := 0; i < p.Trees; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return f
}

// Predict returns the forest prediction (mean over trees) for v.
func (f *Forest) Predict(v []float64) float64 {
	if len(v) != f.Features {
		panic(fmt.Sprintf("forest: predict with %d features, forest has %d", len(v), f.Features))
	}
	var s float64
	for _, t := range f.Trees {
		s += t.Predict(v)
	}
	return s / float64(len(f.Trees))
}

// predictBlock is the row-block size for batch prediction: blocks keep
// the active rows hot in cache while each tree's node array streams
// through once per block instead of once per row.
const predictBlock = 128

// PredictBatch fills dst with forest predictions for each row of x; a
// nil dst is allocated. With a non-nil dst the call performs no
// allocations. Results are bit-identical to calling Predict per row:
// per-tree predictions are accumulated in tree order and divided once.
// Production batches run the compiled form (treec.Forest.PredictBatch,
// via core.TwoLevelModel.EvaluateBatch); this pointer walk is the oracle
// the compiled kernel is tested and timed against.
func (f *Forest) PredictBatch(x *mat.Dense, dst []float64) []float64 {
	if x.Cols != f.Features {
		panic(fmt.Sprintf("forest: predict with %d features, forest has %d", x.Cols, f.Features))
	}
	if dst == nil {
		dst = make([]float64, x.Rows)
	}
	if len(dst) != x.Rows {
		panic("forest: PredictBatch dst length mismatch")
	}
	data := x.Data
	cols := x.Cols
	m := float64(len(f.Trees))
	for b := 0; b < x.Rows; b += predictBlock {
		be := b + predictBlock
		if be > x.Rows {
			be = x.Rows
		}
		for i := b; i < be; i++ {
			dst[i] = 0
		}
		for _, t := range f.Trees {
			nodes := t.Nodes
			for i := b; i < be; i++ {
				row := data[i*cols : i*cols+cols]
				j := int32(0)
				for {
					n := &nodes[j]
					if n.Feature < 0 {
						dst[i] += n.Value
						break
					}
					if row[n.Feature] <= n.Threshold {
						j = n.Left
					} else {
						j = n.Right
					}
				}
			}
		}
		for i := b; i < be; i++ {
			dst[i] /= m
		}
	}
	return dst
}

// PredictQuantilesInto walks the ensemble once and fills dst[i] with the
// qs[i]-quantile of per-tree predictions for v, returning the ensemble
// mean. preds is scratch of length >= len(f.Trees); nil allocates. With
// non-nil scratch the call performs no allocations, so interval serving
// pays one tree-walk per forest instead of one per quantile.
//
// The mean is accumulated in tree order before the scratch is sorted,
// keeping it bit-identical to Predict (sorting would change float
// summation order).
func (f *Forest) PredictQuantilesInto(v, qs, preds, dst []float64) float64 {
	if len(v) != f.Features {
		panic(fmt.Sprintf("forest: predict with %d features, forest has %d", len(v), f.Features))
	}
	if len(dst) < len(qs) {
		panic("forest: quantile dst shorter than qs")
	}
	for _, q := range qs {
		if q < 0 || q > 1 {
			panic("forest: quantile outside [0,1]")
		}
	}
	if preds == nil {
		preds = make([]float64, len(f.Trees))
	} else if len(preds) < len(f.Trees) {
		panic("forest: quantile scratch shorter than tree count")
	}
	preds = preds[:len(f.Trees)]
	var s float64
	for i, t := range f.Trees {
		p := t.Predict(v)
		preds[i] = p
		s += p
	}
	mean := s / float64(len(f.Trees))
	sort.Float64s(preds)
	for i, q := range qs {
		pos := q * float64(len(preds)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			dst[i] = preds[lo]
			continue
		}
		frac := pos - float64(lo)
		dst[i] = preds[lo]*(1-frac) + preds[hi]*frac
	}
	return mean
}
