package linmod

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// This file keeps the solvers the package used before the Gram-form path
// solver, as test oracles: cyclic coordinate descent over the n data
// rows from a cold start, stopped when no coefficient moves by Tol. At
// the same lambda the path solver must reach an objective no higher
// than theirs. They standardize the data themselves, apart from
// newProblem, so the oracle shares no code with what it checks.

// oracleMultiTaskLasso is block coordinate descent on the multitask
// lasso: each group takes the group soft-threshold of its residual
// correlation, recomputed from the n×T residual.
func oracleMultiTaskLasso(x, y *mat.Dense, lambda float64, opt Options) *MultiTaskModel {
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("linmod: multitask %d rows vs %d targets", x.Rows, y.Rows))
	}
	if x.Rows == 0 {
		panic("linmod: multitask fit on empty dataset")
	}
	if lambda < 0 {
		panic("linmod: negative multitask lambda")
	}
	opt = opt.withDefaults()
	n, p, tasks := x.Rows, x.Cols, y.Cols

	// standardize X
	xs := x.Clone()
	xMean := make([]float64, p)
	xScale := make([]float64, p)
	colNorm := make([]float64, p)
	for j := 0; j < p; j++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += xs.At(i, j)
		}
		mu := sum / float64(n)
		var ss float64
		for i := 0; i < n; i++ {
			d := xs.At(i, j) - mu
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(n))
		if sd == 0 {
			sd = 1
		}
		xMean[j], xScale[j] = mu, sd
		var cn float64
		for i := 0; i < n; i++ {
			v := (xs.At(i, j) - mu) / sd
			xs.Set(i, j, v)
			cn += v * v
		}
		colNorm[j] = cn
	}
	// center Y per task
	ys := y.Clone()
	yMean := make([]float64, tasks)
	for t := 0; t < tasks; t++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += ys.At(i, t)
		}
		mu := sum / float64(n)
		yMean[t] = mu
		for i := 0; i < n; i++ {
			ys.Set(i, t, ys.At(i, t)-mu)
		}
	}

	beta := mat.NewDense(p, tasks)
	resid := ys.Clone() // residual matrix R = Y - X·B, starts at Y (B = 0)
	lam := lambda * float64(n)

	rho := make([]float64, tasks)
	iters := 0
	for it := 0; it < opt.MaxIter; it++ {
		iters = it + 1
		var maxDelta float64
		for j := 0; j < p; j++ {
			cn := colNorm[j]
			if cn == 0 {
				continue
			}
			brow := beta.Row(j)
			// rho_t = X_jᵀ R_t + cn·beta_{j,t}
			for t := range rho {
				rho[t] = cn * brow[t]
			}
			for i := 0; i < n; i++ {
				xij := xs.At(i, j)
				if xij == 0 {
					continue
				}
				rrow := resid.Row(i)
				for t := range rho {
					rho[t] += xij * rrow[t]
				}
			}
			// group soft threshold: B_j = max(0, 1 - lam/||rho||) · rho / cn
			nrm := mat.Norm2(rho)
			var scale float64
			if nrm > lam {
				scale = (1 - lam/nrm) / cn
			}
			var rowDelta float64
			for t := 0; t < tasks; t++ {
				newb := scale * rho[t]
				d := newb - brow[t]
				if d != 0 {
					if ad := math.Abs(d); ad > rowDelta {
						rowDelta = ad
					}
					for i := 0; i < n; i++ {
						xij := xs.At(i, j)
						if xij != 0 {
							resid.Set(i, t, resid.At(i, t)-d*xij)
						}
					}
					brow[t] = newb
				}
			}
			if rowDelta > maxDelta {
				maxDelta = rowDelta
			}
		}
		if maxDelta < opt.Tol {
			break
		}
	}

	// map back to raw units
	coef := mat.NewDense(p, tasks)
	inter := append([]float64(nil), yMean...)
	for j := 0; j < p; j++ {
		for t := 0; t < tasks; t++ {
			c := beta.At(j, t) / xScale[j]
			coef.Set(j, t, c)
			inter[t] -= c * xMean[j]
		}
	}
	return &MultiTaskModel{Coef: coef, Intercept: inter, Tasks: tasks, Iterations: iters}
}

// standardized holds a centered and scaled copy of a single-task
// problem and the statistics that map coefficients back to raw units.
// It is the oracle's own standardization, independent of newProblem's,
// so a slip in either shows as a disagreement.
type standardized struct {
	x       *mat.Dense // centered and scaled copy
	y       []float64  // centered copy
	xMean   []float64
	xScale  []float64 // column std (1 where degenerate)
	yMean   float64
	colNorm []float64 // sum of squares of each standardized column
}

func standardize(x *mat.Dense, y []float64) *standardized {
	n, p := x.Rows, x.Cols
	s := &standardized{
		x:       x.Clone(),
		y:       append([]float64(nil), y...),
		xMean:   make([]float64, p),
		xScale:  make([]float64, p),
		colNorm: make([]float64, p),
	}
	for j := 0; j < p; j++ {
		s.xMean[j], s.xScale[j] = columnMean(x, j), columnSD(x, j)
		for i := 0; i < n; i++ {
			v := (s.x.At(i, j) - s.xMean[j]) / s.xScale[j]
			s.x.Set(i, j, v)
			s.colNorm[j] += v * v
		}
	}
	for _, v := range s.y {
		s.yMean += v
	}
	s.yMean /= float64(n)
	for i := range s.y {
		s.y[i] -= s.yMean
	}
	return s
}

// oracleFit is a single-task oracle's model in raw units.
type oracleFit struct {
	coef      []float64
	intercept float64
}

// unstandardize maps standardized coefficients back to raw units and
// computes the intercept.
func (s *standardized) unstandardize(beta []float64) oracleFit {
	f := oracleFit{coef: make([]float64, len(beta)), intercept: s.yMean}
	for j := range beta {
		f.coef[j] = beta[j] / s.xScale[j]
		f.intercept -= f.coef[j] * s.xMean[j]
	}
	return f
}

// model returns the fit as the package's one-task model.
func (f oracleFit) model() *MultiTaskModel {
	return &MultiTaskModel{Coef: column(f.coef), Intercept: []float64{f.intercept}, Tasks: 1}
}

// oracleLasso is cyclic coordinate descent on the single-task lasso.
func oracleLasso(x *mat.Dense, y []float64, lambda float64, opt Options) oracleFit {
	opt = opt.withDefaults()
	s := standardize(x, y)
	n := float64(x.Rows)
	p := x.Cols

	beta := make([]float64, p)
	resid := append([]float64(nil), s.y...) // residual = y - X·beta (beta = 0)

	l1 := lambda * n

	for it := 0; it < opt.MaxIter; it++ {
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
			newb := softThreshold(rho, l1) / cn
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

// mtObjective is the objective MultiTaskLasso minimizes, evaluated in raw
// units: (1/2n)||Y-XB-1·cᵀ||_F² + lambda·Σ_j sd_j·||B_j||₂. The raw
// coefficient row B_j is the standardized one divided by column j's
// standard deviation sd_j (1 for a constant column), so weighting the
// penalty by sd_j gives the standardized problem's objective.
func mtObjective(x, y *mat.Dense, m *MultiTaskModel, lambda float64) float64 {
	n := x.Rows
	var loss float64
	for i := 0; i < n; i++ {
		pred := m.Predict(x.Row(i))
		for t := 0; t < y.Cols; t++ {
			d := y.At(i, t) - pred[t]
			loss += d * d
		}
	}
	loss /= 2 * float64(n)
	var pen float64
	for j := 0; j < m.Coef.Rows; j++ {
		pen += columnSD(x, j) * mat.Norm2(m.Coef.Row(j))
	}
	return loss + lambda*pen
}

// column returns y as an n×1 matrix: a single-task problem's Y.
func column(y []float64) *mat.Dense {
	return &mat.Dense{Rows: len(y), Cols: 1, Data: append([]float64(nil), y...)}
}

// columnMean is the mean the solvers center column j by.
func columnMean(x *mat.Dense, j int) float64 {
	var sum float64
	for i := 0; i < x.Rows; i++ {
		sum += x.At(i, j)
	}
	return sum / float64(x.Rows)
}

// columnSD is the standard deviation the solvers scale column j by.
func columnSD(x *mat.Dense, j int) float64 {
	mu := columnMean(x, j)
	var ss float64
	for i := 0; i < x.Rows; i++ {
		d := x.At(i, j) - mu
		ss += d * d
	}
	if sd := math.Sqrt(ss / float64(x.Rows)); sd > 0 {
		return sd
	}
	return 1
}
