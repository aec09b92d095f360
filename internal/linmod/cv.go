package linmod

import (
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// cvSplit partitions [0, n) into k shuffled folds of near-equal size.
func cvSplit(r *rng.Source, n, k int) [][]int {
	perm := r.Perm(n)
	folds := make([][]int, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		folds[f] = perm[lo:hi]
	}
	return folds
}

func gatherRows(x *mat.Dense, idx []int) *mat.Dense {
	out := mat.NewDense(len(idx), x.Cols)
	for i, j := range idx {
		copy(out.Row(i), x.Row(j))
	}
	return out
}

// CVMultiTaskLasso selects the multitask-lasso lambda by k-fold CV
// (summed squared error over all tasks), then refits on the full data.
// Each fold walks the grid from the top with warm starts, and so does
// the refit, down to the winner; the model's Sweeps counts all of it.
func CVMultiTaskLasso(r *rng.Source, x, y *mat.Dense, k, nLambdas int, opt Options) (*MultiTaskModel, float64) {
	if k < 2 || k > x.Rows {
		panic("linmod: CVMultiTaskLasso bad fold count")
	}
	lmax := MultiTaskLambdaMax(x, y)
	if lmax == 0 {
		lmax = 1e-12
	}
	lambdas := logGrid(lmax, 1e-3, nLambdas)
	folds := cvSplit(r, x.Rows, k)
	sse := make([]float64, len(lambdas))
	var cnt, sweeps int
	for f := range folds {
		trIdx, teIdx := antiFold(folds, f, x.Rows)
		path := MultiTaskLassoPath(gatherRows(x, trIdx), gatherRows(y, trIdx), lambdas, opt)
		for li, m := range path {
			for _, i := range teIdx {
				pred := m.Predict(x.Row(i))
				for t := 0; t < y.Cols; t++ {
					d := pred[t] - y.At(i, t)
					sse[li] += d * d
				}
			}
		}
		sweeps += path[len(path)-1].Sweeps
		cnt += len(teIdx) * y.Cols
	}
	best := bestLambda(sse, cnt)
	m := MultiTaskLassoPath(x, y, lambdas[:best+1], opt)[best]
	m.Sweeps += sweeps
	return m, lambdas[best]
}

// bestLambda returns the grid index with the lowest mean squared error,
// the first on a tie.
func bestLambda(sse []float64, cnt int) int {
	best, bestErr := 0, math.Inf(1)
	for li, s := range sse {
		if err := s / float64(cnt); err < bestErr {
			best, bestErr = li, err
		}
	}
	return best
}

// logGrid returns n log-spaced values from top down to top*ratio.
func logGrid(top, ratio float64, n int) []float64 {
	if n < 2 {
		panic("linmod: logGrid needs n >= 2")
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		out[i] = top * math.Pow(ratio, f)
	}
	return out
}

// antiFold returns (train indices, test indices) for fold f.
func antiFold(folds [][]int, f, n int) (train, test []int) {
	test = folds[f]
	train = make([]int, 0, n-len(test))
	for g := range folds {
		if g != f {
			train = append(train, folds[g]...)
		}
	}
	return train, test
}
