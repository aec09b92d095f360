// Package linmod implements the linear models used at the paper's
// extrapolation level and as baselines: the multitask lasso — the core
// of the extrapolation level, whose L2,1 penalty makes all tasks (large
// target scales) share one sparsity pattern over the features
// (small-scale performance predictions) — and ridge regression. One
// model type, MultiTaskModel, holds every fit; a single-task model is
// the one-task case, fitted on a Y with one column.
//
// Every lasso fit runs one solver (path.go): the problem is
// standardized once and reduced to its Gram form (XᵀX, XᵀY, ‖Y‖²), a
// lambda path is walked from the top down with warm starts, and each
// lambda stops on a duality gap, so a returned model carries a
// certificate of how close it is to the optimum. Block coordinate sweeps
// find the active features and Newton steps on them finish the solve.
// Ridge solves the same Gram form in closed form.
//
// All solvers operate on standardized copies of the data internally and
// fold the centering back into an explicit intercept, so callers pass raw
// features and get raw-unit coefficients.
package linmod

import (
	"fmt"

	"repro/internal/mat"
)

// Options configures the iterative solver.
type Options struct {
	// MaxIter caps the solver iterations at one lambda: coordinate
	// sweeps plus Newton steps (default 1000).
	MaxIter int
	// Tol is the convergence threshold: the duality gap of the
	// n-scaled objective relative to ‖Y‖² (centered targets), so a
	// solution's objective is within Tol·‖Y‖²/n of the optimum
	// (default 1e-9). A value that is not positive selects the default.
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if !(o.Tol > 0) {
		o.Tol = 1e-9
	}
	return o
}

// Ridge fits an L2-penalized model in closed form on standardized data:
// B = (XᵀX + lambda·n·I)⁻¹ XᵀY, the minimizer of
// (1/2n)·‖Y − X·B‖²_F + (lambda/2)·‖B‖²_F. lambda must be >= 0.
func Ridge(x, y *mat.Dense, lambda float64) *MultiTaskModel {
	if !(lambda >= 0) {
		panic(fmt.Sprintf("linmod: ridge lambda %v is not a non-negative number", lambda))
	}
	pr := newProblem(x, y)
	for j := 0; j < pr.p; j++ {
		pr.g[j*pr.p+j] += lambda * float64(pr.n)
	}
	s := newSolver(pr, Options{})
	s.leastSquares()
	coef, inter := s.coefficients()
	return &MultiTaskModel{Coef: coef, Intercept: inter, Tasks: pr.tasks}
}
