// Package linmod implements the linear models used at the paper's
// extrapolation level and as baselines: ordinary least squares, ridge,
// lasso and elastic net by cyclic coordinate descent, and — the core of
// the extrapolation level — the multitask lasso, solved by block
// coordinate descent on the L2,1-penalized squared loss so that all tasks
// (large target scales) share one sparsity pattern over the features
// (small-scale performance predictions).
//
// All solvers operate on standardized copies of the data internally and
// fold the centering back into an explicit intercept, so callers pass raw
// features and get raw-unit coefficients.
package linmod

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Model is a fitted single-task linear model: y ≈ x·Coef + Intercept.
type Model struct {
	Coef      []float64 `json:"coef"`
	Intercept float64   `json:"intercept"`
	// Iterations actually used by the optimizer (0 for closed-form fits).
	Iterations int `json:"iterations,omitempty"`
}

// Predict evaluates the model on a feature vector.
func (m *Model) Predict(v []float64) float64 {
	if len(v) != len(m.Coef) {
		panic(fmt.Sprintf("linmod: predict with %d features, model has %d", len(v), len(m.Coef)))
	}
	return mat.Dot(m.Coef, v) + m.Intercept
}

// PredictBatch fills dst with predictions for every row of x.
func (m *Model) PredictBatch(x *mat.Dense, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		dst[i] = m.Predict(x.Row(i))
	}
	return dst
}

// Options configures the iterative solvers.
type Options struct {
	MaxIter int     // maximum coordinate-descent sweeps (default 1000)
	Tol     float64 // convergence threshold on max coefficient change (default 1e-6)
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// standardized holds a centered/scaled design and the statistics needed to
// map coefficients back to raw units.
type standardized struct {
	x       *mat.Dense // centered and scaled copy, column-major friendly row storage
	y       []float64  // centered copy
	xMean   []float64
	xScale  []float64 // column std (1 where degenerate)
	yMean   float64
	colNorm []float64 // sum of squares of each standardized column
}

func standardize(x *mat.Dense, y []float64) *standardized {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("linmod: %d rows vs %d targets", x.Rows, len(y)))
	}
	if x.Rows == 0 {
		panic("linmod: fit on empty dataset")
	}
	n, p := x.Rows, x.Cols
	s := &standardized{
		x:       x.Clone(),
		y:       append([]float64(nil), y...),
		xMean:   make([]float64, p),
		xScale:  make([]float64, p),
		colNorm: make([]float64, p),
	}
	for j := 0; j < p; j++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += s.x.At(i, j)
		}
		m := sum / float64(n)
		var ss float64
		for i := 0; i < n; i++ {
			d := s.x.At(i, j) - m
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(n))
		if sd == 0 {
			sd = 1
		}
		s.xMean[j], s.xScale[j] = m, sd
		for i := 0; i < n; i++ {
			s.x.Set(i, j, (s.x.At(i, j)-m)/sd)
		}
		var cn float64
		for i := 0; i < n; i++ {
			v := s.x.At(i, j)
			cn += v * v
		}
		s.colNorm[j] = cn
	}
	var ym float64
	for _, v := range s.y {
		ym += v
	}
	ym /= float64(n)
	s.yMean = ym
	for i := range s.y {
		s.y[i] -= ym
	}
	return s
}

// unstandardize maps standardized-space coefficients back to raw units and
// computes the intercept.
func (s *standardized) unstandardize(beta []float64) *Model {
	coef := make([]float64, len(beta))
	inter := s.yMean
	for j := range beta {
		coef[j] = beta[j] / s.xScale[j]
		inter -= coef[j] * s.xMean[j]
	}
	return &Model{Coef: coef, Intercept: inter}
}

// OLS fits ordinary least squares via QR on the raw design augmented with
// an intercept column. Rank-deficient designs return an error.
func OLS(x *mat.Dense, y []float64) (*Model, error) {
	n, p := x.Rows, x.Cols
	if n != len(y) {
		panic("linmod: OLS shape mismatch")
	}
	aug := mat.NewDense(n, p+1)
	for i := 0; i < n; i++ {
		row := aug.Row(i)
		row[0] = 1
		copy(row[1:], x.Row(i))
	}
	sol, err := mat.LeastSquares(aug, y)
	if err != nil {
		return nil, err
	}
	return &Model{Coef: sol[1:], Intercept: sol[0]}, nil
}

// Ridge fits an L2-penalized model in closed form on standardized data:
// beta = (XᵀX + lambda·n·I)⁻¹ Xᵀy. lambda must be >= 0.
func Ridge(x *mat.Dense, y []float64, lambda float64) *Model {
	if lambda < 0 {
		panic("linmod: negative ridge lambda")
	}
	s := standardize(x, y)
	n := float64(x.Rows)
	gram := mat.MulATA(s.x)
	for j := 0; j < gram.Rows; j++ {
		gram.Set(j, j, gram.At(j, j)+lambda*n)
	}
	xty := s.x.MulVecT(nil, s.y)
	beta, err := mat.SolveSPD(gram, xty)
	if err != nil {
		// With lambda > 0 the system is SPD by construction; lambda == 0 on a
		// degenerate design can fail — fall back to a tiny jitter.
		for j := 0; j < gram.Rows; j++ {
			gram.Set(j, j, gram.At(j, j)+1e-10*n)
		}
		beta, err = mat.SolveSPD(gram, xty)
		if err != nil {
			panic("linmod: ridge normal equations unsolvable: " + err.Error())
		}
	}
	return s.unstandardize(beta)
}

// softThreshold is the scalar proximal operator of the L1 norm.
func softThreshold(z, gamma float64) float64 {
	switch {
	case z > gamma:
		return z - gamma
	case z < -gamma:
		return z + gamma
	default:
		return 0
	}
}

// Lasso fits an L1-penalized model by cyclic coordinate descent minimizing
//
//	(1/2n)·||y - X·beta||² + lambda·||beta||₁
//
// on standardized data (the scikit-learn objective, so lambdas transfer).
func Lasso(x *mat.Dense, y []float64, lambda float64, opt Options) *Model {
	return ElasticNet(x, y, lambda, 1.0, opt)
}

// ElasticNet fits (1/2n)||y-Xb||² + lambda·(alpha·||b||₁ + (1-alpha)/2·||b||²).
// alpha = 1 is the lasso; alpha = 0 is ridge (prefer Ridge for that, it is
// closed-form).
func ElasticNet(x *mat.Dense, y []float64, lambda, alpha float64, opt Options) *Model {
	if lambda < 0 || alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("linmod: bad elastic-net lambda=%v alpha=%v", lambda, alpha))
	}
	opt = opt.withDefaults()
	s := standardize(x, y)
	n := float64(x.Rows)
	p := x.Cols

	beta := make([]float64, p)
	resid := append([]float64(nil), s.y...) // residual = y - X·beta (beta = 0)

	l1 := lambda * alpha * n
	l2 := lambda * (1 - alpha) * n

	iters := 0
	for it := 0; it < opt.MaxIter; it++ {
		iters = it + 1
		var maxDelta float64
		for j := 0; j < p; j++ {
			cn := s.colNorm[j]
			if cn == 0 {
				continue
			}
			old := beta[j]
			// partial residual correlation: xⱼᵀ(resid + xⱼ·betaⱼ)
			var rho float64
			for i := 0; i < x.Rows; i++ {
				rho += s.x.At(i, j) * resid[i]
			}
			rho += cn * old
			newb := softThreshold(rho, l1) / (cn + l2)
			//lint:allow floateq -- no-op update skip: both values come from the identical computation
			if newb != old {
				d := newb - old
				for i := 0; i < x.Rows; i++ {
					resid[i] -= d * s.x.At(i, j)
				}
				beta[j] = newb
				if ad := math.Abs(d); ad > maxDelta {
					maxDelta = ad
				}
			}
		}
		if maxDelta < opt.Tol {
			break
		}
	}
	m := s.unstandardize(beta)
	m.Iterations = iters
	return m
}

// LambdaMax returns the smallest lambda for which the lasso solution is
// entirely zero — the top of a regularization path.
func LambdaMax(x *mat.Dense, y []float64) float64 {
	s := standardize(x, y)
	n := float64(x.Rows)
	var best float64
	for j := 0; j < x.Cols; j++ {
		var rho float64
		for i := 0; i < x.Rows; i++ {
			rho += s.x.At(i, j) * s.y[i]
		}
		if a := math.Abs(rho) / n; a > best {
			best = a
		}
	}
	return best
}
