// Package cluster implements k-means clustering with k-means++ seeding and
// multi-restart selection, plus the scaling-curve normalization the
// two-level model uses before clustering configurations by the *shape* of
// their small-scale performance curves (rather than their magnitude).
package cluster

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Result is a fitted k-means clustering.
type Result struct {
	Centroids *mat.Dense // k × d
	Labels    []int      // len n, cluster index per input row
	Inertia   float64    // sum of squared distances to assigned centroids
	Iters     int        // iterations of the best restart
}

// K returns the number of clusters.
func (r *Result) K() int { return r.Centroids.Rows }

// Assign returns the index of the nearest centroid to v.
func (r *Result) Assign(v []float64) int {
	if len(v) != r.Centroids.Cols {
		panic(fmt.Sprintf("cluster: assign with %d dims, centroids have %d", len(v), r.Centroids.Cols))
	}
	best, bestD := 0, math.Inf(1)
	for c := 0; c < r.Centroids.Rows; c++ {
		d := sqDist(v, r.Centroids.Row(c))
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Options configures KMeans. Zero values pick the defaults noted per field.
type Options struct {
	MaxIter  int // Lloyd iterations per restart (default 100)
	Restarts int // independent k-means++ restarts, best inertia wins (default 8)
	Tol      float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Restarts <= 0 {
		o.Restarts = 8
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// KMeans clusters the rows of x into k clusters. It panics if k < 1 or
// k > n. k == 1 is permitted (it degenerates to the global mean) because
// the two-level model's "no clustering" ablation uses it.
func KMeans(r *rng.Source, x *mat.Dense, k int, opt Options) *Result {
	n := x.Rows
	if k < 1 || k > n {
		panic(fmt.Sprintf("cluster: k=%d with n=%d points", k, n))
	}
	opt = opt.withDefaults()
	var best *Result
	for restart := 0; restart < opt.Restarts; restart++ {
		res := lloyd(r, x, k, opt)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

// lloyd runs one k-means++ seeding followed by Lloyd iterations.
func lloyd(r *rng.Source, x *mat.Dense, k int, opt Options) *Result {
	n, d := x.Rows, x.Cols
	cent := seedPlusPlus(r, x, k)
	labels := make([]int, n)
	counts := make([]int, k)
	prevInertia := math.Inf(1)
	iters := 0
	for it := 0; it < opt.MaxIter; it++ {
		iters = it + 1
		// assignment step
		var inertia float64
		for i := 0; i < n; i++ {
			row := x.Row(i)
			bi, bd := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				dist := sqDist(row, cent.Row(c))
				if dist < bd {
					bi, bd = c, dist
				}
			}
			labels[i] = bi
			inertia += bd
		}
		// update step
		newCent := mat.NewDense(k, d)
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := labels[i]
			counts[c]++
			mat.Axpy(1, x.Row(i), newCent.Row(c))
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// re-seed an empty cluster at the point farthest from its centroid
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					dist := sqDist(x.Row(i), cent.Row(labels[i]))
					if dist > farD {
						far, farD = i, dist
					}
				}
				copy(newCent.Row(c), x.Row(far))
				continue
			}
			mat.Scale(1/float64(counts[c]), newCent.Row(c))
		}
		cent = newCent
		if prevInertia-inertia < opt.Tol {
			prevInertia = inertia
			break
		}
		prevInertia = inertia
	}
	// final assignment with the final centroids
	var inertia float64
	for i := 0; i < n; i++ {
		row := x.Row(i)
		bi, bd := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			dist := sqDist(row, cent.Row(c))
			if dist < bd {
				bi, bd = c, dist
			}
		}
		labels[i] = bi
		inertia += bd
	}
	return &Result{Centroids: cent, Labels: labels, Inertia: inertia, Iters: iters}
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting.
func seedPlusPlus(r *rng.Source, x *mat.Dense, k int) *mat.Dense {
	n, d := x.Rows, x.Cols
	cent := mat.NewDense(k, d)
	first := r.Intn(n)
	copy(cent.Row(0), x.Row(first))
	dists := make([]float64, n)
	for i := 0; i < n; i++ {
		dists[i] = sqDist(x.Row(i), cent.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range dists {
			total += v
		}
		var pick int
		if total == 0 {
			pick = r.Intn(n) // all points identical to chosen centroids
		} else {
			target := r.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, v := range dists {
				acc += v
				if acc >= target {
					pick = i
					break
				}
			}
		}
		copy(cent.Row(c), x.Row(pick))
		for i := 0; i < n; i++ {
			if nd := sqDist(x.Row(i), cent.Row(c)); nd < dists[i] {
				dists[i] = nd
			}
		}
	}
	return cent
}

// NormalizeCurves maps each row (a per-configuration scaling curve) to a
// shape vector: the row is divided by its first element, then log2 is
// applied. Two configurations with proportional runtimes — the same
// scaling behaviour at different magnitudes — map to the same shape.
// Rows must be strictly positive.
func NormalizeCurves(curves *mat.Dense) *mat.Dense {
	out := mat.NewDense(curves.Rows, curves.Cols)
	for i := 0; i < curves.Rows; i++ {
		src := curves.Row(i)
		if src[0] <= 0 {
			panic(fmt.Sprintf("cluster: non-positive runtime %v in curve %d", src[0], i))
		}
		dst := out.Row(i)
		for j, v := range src {
			if v <= 0 {
				panic(fmt.Sprintf("cluster: non-positive runtime %v in curve %d", v, i))
			}
			dst[j] = math.Log2(v / src[0])
		}
	}
	return out
}

// NormalizeCurveInto applies the NormalizeCurves transform to one curve,
// writing the shape into dst (same length) and returning it. dst may
// alias curve. The call performs no allocations.
func NormalizeCurveInto(curve, dst []float64) []float64 {
	if len(dst) != len(curve) {
		panic(fmt.Sprintf("cluster: normalize %d-point curve into %d-point dst", len(curve), len(dst)))
	}
	base := curve[0]
	if base <= 0 {
		panic(fmt.Sprintf("cluster: non-positive runtime %v in curve 0", base))
	}
	for j, v := range curve {
		if v <= 0 {
			panic(fmt.Sprintf("cluster: non-positive runtime %v in curve 0", v))
		}
		dst[j] = math.Log2(v / base)
	}
	return dst
}
