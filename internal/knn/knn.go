// Package knn implements a k-nearest-neighbour regressor, one of the
// "existing ML methods" baselines. Features are standardized internally so
// Euclidean distance is meaningful across heterogeneous parameter units.
// kNN is a pure interpolator — it cannot produce predictions outside the
// convex hull of its training targets — which makes it the clearest
// illustration of why direct ML fails at scale extrapolation.
package knn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// Regressor is a fitted kNN model.
type Regressor struct {
	k        int
	weighted bool // inverse-distance weighting
	x        *mat.Dense
	y        []float64
	scaler   *dataset.StandardScaler
}

// New fits (memorizes) a kNN regressor with the given neighbour count.
// weighted selects inverse-distance weighting instead of a plain mean.
func New(x *mat.Dense, y []float64, k int, weighted bool) *Regressor {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("knn: %d rows vs %d targets", x.Rows, len(y)))
	}
	if x.Rows == 0 {
		panic("knn: empty training set")
	}
	if k < 1 || k > x.Rows {
		panic(fmt.Sprintf("knn: k=%d with n=%d", k, x.Rows))
	}
	xs := x.Clone()
	sc := dataset.FitStandard(xs)
	sc.Transform(xs)
	return &Regressor{
		k:        k,
		weighted: weighted,
		x:        xs,
		y:        append([]float64(nil), y...),
		scaler:   sc,
	}
}

// Predict returns the kNN estimate for feature vector v.
func (r *Regressor) Predict(v []float64) float64 {
	if len(v) != r.x.Cols {
		panic(fmt.Sprintf("knn: predict with %d features, model has %d", len(v), r.x.Cols))
	}
	q := append([]float64(nil), v...)
	r.scaler.TransformVec(q)

	type nb struct {
		d float64
		i int
	}
	nbs := make([]nb, r.x.Rows)
	for i := 0; i < r.x.Rows; i++ {
		row := r.x.Row(i)
		var s float64
		for j, qv := range q {
			d := qv - row[j]
			s += d * d
		}
		nbs[i] = nb{d: s, i: i}
	}
	sort.Slice(nbs, func(a, b int) bool { return nbs[a].d < nbs[b].d })

	if !r.weighted {
		var s float64
		for _, n := range nbs[:r.k] {
			s += r.y[n.i]
		}
		return s / float64(r.k)
	}
	var num, den float64
	for _, n := range nbs[:r.k] {
		d := math.Sqrt(n.d)
		if d == 0 {
			return r.y[n.i] // exact match dominates
		}
		w := 1 / d
		num += w * r.y[n.i]
		den += w
	}
	return num / den
}

// K returns the neighbour count.
func (r *Regressor) K() int { return r.k }
