package linmod

import (
	"fmt"

	"repro/internal/mat"
)

// MultiTaskModel is a fitted multitask linear model for T tasks sharing
// one design matrix: Y ≈ X·Coef + Intercept, with Coef of shape p×T.
// In the two-level model the tasks are the large target scales and the
// features are small-scale performance predictions, so the shared L2,1
// sparsity pattern selects the same informative small scales for every
// target scale. It is the package's one model type: a single-task fit
// (lasso or ridge) is the T = 1 case.
type MultiTaskModel struct {
	Coef      *mat.Dense `json:"coef"`      // p × T
	Intercept []float64  `json:"intercept"` // length T
	Tasks     int        `json:"tasks"`
	// Iterations is what the solver spent at this model's lambda (one
	// per coordinate sweep or Newton step), and Gap the duality gap it
	// reached there, relative to ‖Y‖²: at most Options.Tol unless the
	// solve stopped at MaxIter. Sweeps counts the iterations of the
	// whole fit: the path down to this lambda and, for a
	// cross-validated fit, every fold's path.
	Iterations int     `json:"iterations,omitempty"`
	Gap        float64 `json:"gap,omitempty"`
	Sweeps     int     `json:"sweeps,omitempty"`
}

// Predict evaluates all task outputs for a feature vector.
func (m *MultiTaskModel) Predict(v []float64) []float64 {
	return m.PredictInto(v, make([]float64, m.Tasks))
}

// PredictInto evaluates all task outputs for a feature vector into dst
// (length Tasks) and returns it. The call performs no allocations.
func (m *MultiTaskModel) PredictInto(v, dst []float64) []float64 {
	if len(v) != m.Coef.Rows {
		panic(fmt.Sprintf("linmod: multitask predict with %d features, model has %d", len(v), m.Coef.Rows))
	}
	if len(dst) != m.Tasks {
		panic(fmt.Sprintf("linmod: multitask predict into %d outputs, model has %d tasks", len(dst), m.Tasks))
	}
	copy(dst, m.Intercept)
	for j, xv := range v {
		if xv == 0 {
			continue
		}
		row := m.Coef.Row(j)
		for t := range dst {
			dst[t] += xv * row[t]
		}
	}
	return dst
}

// PredictTask evaluates a single task output.
func (m *MultiTaskModel) PredictTask(v []float64, task int) float64 {
	if task < 0 || task >= m.Tasks {
		panic(fmt.Sprintf("linmod: task %d out of %d", task, m.Tasks))
	}
	s := m.Intercept[task]
	for j, xv := range v {
		s += xv * m.Coef.At(j, task)
	}
	return s
}

// ActiveFeatures returns the indices of features with a non-zero
// coefficient row (shared across tasks by the L2,1 penalty).
func (m *MultiTaskModel) ActiveFeatures() []int {
	var out []int
	for j := 0; j < m.Coef.Rows; j++ {
		if mat.Norm2(m.Coef.Row(j)) > 0 {
			out = append(out, j)
		}
	}
	return out
}

// MultiTaskLasso solves
//
//	min over B:  (1/2n)·||Y - X·B||_F² + lambda·Σ_j ||B_j||₂
//
// where B_j is the j-th row of the p×T coefficient matrix — the standard
// L2,1 ("group by feature across tasks") multitask lasso. X is
// standardized and Y is centered per task internally. It is the path of
// MultiTaskLassoPath with one lambda.
func MultiTaskLasso(x, y *mat.Dense, lambda float64, opt Options) *MultiTaskModel {
	return MultiTaskLassoPath(x, y, []float64{lambda}, opt)[0]
}

// MultiTaskLassoPath fits the multitask lasso at each lambda in turn,
// each fit warm-started from the one before, and returns one model per
// lambda. A descending grid makes every warm start close to its
// solution. The standardization and the Gram matrices are computed once
// for the whole path.
func MultiTaskLassoPath(x, y *mat.Dense, lambdas []float64, opt Options) []*MultiTaskModel {
	checkLambdas(lambdas)
	pr := newProblem(x, y)
	pr.dropDuplicates()
	s := newSolver(pr, opt)
	out := make([]*MultiTaskModel, len(lambdas))
	var total int
	for i, lam := range lambdas {
		iters, gap := s.solve(lam)
		total += iters
		coef, inter := s.coefficients()
		out[i] = &MultiTaskModel{Coef: coef, Intercept: inter, Tasks: s.tasks,
			Iterations: iters, Gap: gap, Sweeps: total}
	}
	return out
}

// MultiTaskLambdaMax returns the smallest lambda at which the multitask
// lasso coefficient matrix is entirely zero.
func MultiTaskLambdaMax(x, y *mat.Dense) float64 {
	return newProblem(x, y).lambdaMax()
}
