package linmod

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/stats"
)

// sparseData generates y = 3*x0 - 2*x3 + 1 + noise over p features.
func sparseData(r *rng.Source, n, p int, noise float64) (*mat.Dense, []float64) {
	x := mat.NewDense(n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			x.Set(i, j, r.Norm())
		}
		y[i] = 3*x.At(i, 0) - 2*x.At(i, 3) + 1 + noise*r.Norm()
	}
	return x, y
}

// lasso fits the single-task lasso: the one-task multitask lasso.
func lasso(x *mat.Dense, y []float64, lambda float64, opt Options) *MultiTaskModel {
	return MultiTaskLasso(x, column(y), lambda, opt)
}

// predictAll evaluates a one-task model on every row of x.
func predictAll(m *MultiTaskModel, x *mat.Dense) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = m.PredictTask(x.Row(i), 0)
	}
	return out
}

// ols is the least-squares fit of y on [1, x] by QR, independent of the
// path solver: intercept first, then the coefficients.
func ols(t *testing.T, x *mat.Dense, y []float64) []float64 {
	t.Helper()
	aug := mat.NewDense(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		row := aug.Row(i)
		row[0] = 1
		copy(row[1:], x.Row(i))
	}
	sol, err := mat.LeastSquares(aug, y)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestOLSExactRecovery: at lambda 0 the path solver solves least
// squares in closed form, and on noise-free data it recovers the
// generating coefficients and intercept.
func TestOLSExactRecovery(t *testing.T) {
	r := rng.New(1)
	x, y := sparseData(r, 100, 5, 0)
	m := lasso(x, y, 0, Options{})
	want := []float64{3, 0, 0, -2, 0}
	for j := range want {
		if math.Abs(m.Coef.Data[j]-want[j]) > 1e-8 {
			t.Fatalf("coef = %v", m.Coef.Data)
		}
	}
	if math.Abs(m.Intercept[0]-1) > 1e-8 {
		t.Fatalf("intercept = %v", m.Intercept)
	}
}

// TestOLSRankDeficient: least squares on a design with a duplicated
// column (up to scale) keeps the first copy, gives the other a zero
// coefficient, and still fits exactly.
func TestOLSRankDeficient(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	y := []float64{1, 2, 3}
	m := lasso(x, y, 0, Options{})
	if m.Coef.Data[1] != 0 {
		t.Fatalf("duplicate column got coefficient %v", m.Coef.Data[1])
	}
	for i, p := range predictAll(m, x) {
		if math.IsNaN(p) || math.Abs(p-y[i]) > 1e-6 {
			t.Fatalf("row %d: prediction %v, want %v (coef %v)", i, p, y[i], m.Coef.Data)
		}
	}
}

func TestRidgeShrinksTowardZero(t *testing.T) {
	r := rng.New(2)
	x, y := sparseData(r, 80, 5, 0.1)
	small := Ridge(x, column(y), 1e-6)
	big := Ridge(x, column(y), 100)
	if mat.Norm2(big.Coef.Data) >= mat.Norm2(small.Coef.Data) {
		t.Fatalf("ridge did not shrink: %v vs %v", mat.Norm2(big.Coef.Data), mat.Norm2(small.Coef.Data))
	}
	// tiny lambda approximates OLS
	sol := ols(t, x, y)
	for j, c := range sol[1:] {
		if math.Abs(small.Coef.Data[j]-c) > 1e-3 {
			t.Fatalf("ridge(1e-6) far from OLS: %v vs %v", small.Coef.Data, sol[1:])
		}
	}
}

func TestRidgeNegativeLambdaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Ridge(mat.NewDense(2, 1), column([]float64{1, 2}), -1)
}

func TestRidgeHandlesCollinear(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	y := []float64{2, 4, 6, 8}
	m := Ridge(x, column(y), 0.1)
	// perfectly collinear: ridge splits the weight; prediction must be good
	pred := predictAll(m, x)
	if stats.R2(y, pred) < 0.95 {
		t.Fatalf("ridge R2 on collinear = %v", stats.R2(y, pred))
	}
	if math.Abs(m.Coef.Data[0]-m.Coef.Data[1]) > 1e-6 {
		t.Fatalf("ridge should split collinear weight evenly: %v", m.Coef.Data)
	}
}

func TestLassoZeroLambdaMatchesOLS(t *testing.T) {
	r := rng.New(3)
	x, y := sparseData(r, 120, 4, 0.05)
	las := lasso(x, y, 0, Options{MaxIter: 5000, Tol: 1e-10})
	sol := ols(t, x, y)
	for j, c := range sol[1:] {
		if math.Abs(las.Coef.Data[j]-c) > 1e-5 {
			t.Fatalf("lasso(0) != OLS: %v vs %v", las.Coef.Data, sol[1:])
		}
	}
}

func TestLassoSparsity(t *testing.T) {
	r := rng.New(4)
	x, y := sparseData(r, 200, 10, 0.1)
	m := lasso(x, y, 0.1, Options{})
	nonzero := 0
	for _, c := range m.Coef.Data {
		if c != 0 {
			nonzero++
		}
	}
	if nonzero > 4 {
		t.Fatalf("lasso kept %d features, want few (coefs %v)", nonzero, m.Coef.Data)
	}
	if m.Coef.Data[0] == 0 || m.Coef.Data[3] == 0 {
		t.Fatalf("lasso dropped a true feature: %v", m.Coef.Data)
	}
}

func TestLassoAllZeroAtLambdaMax(t *testing.T) {
	r := rng.New(5)
	x, y := sparseData(r, 100, 6, 0.1)
	lmax := MultiTaskLambdaMax(x, column(y))
	m := lasso(x, y, lmax*1.0001, Options{})
	for _, c := range m.Coef.Data {
		if c != 0 {
			t.Fatalf("coef non-zero above LambdaMax: %v", m.Coef.Data)
		}
	}
	// Just below lambda max, at least one coefficient activates.
	m2 := lasso(x, y, lmax*0.95, Options{})
	any := false
	for _, c := range m2.Coef.Data {
		if c != 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no coefficient active just below LambdaMax")
	}
}

func TestLassoKKTConditions(t *testing.T) {
	// In standardized space: |x_jᵀ r| / n <= lambda for inactive features,
	// == lambda (sign matched) for active ones.
	r := rng.New(6)
	x, y := sparseData(r, 150, 8, 0.2)
	lambda := 0.05
	m := lasso(x, y, lambda, Options{MaxIter: 10000, Tol: 1e-12})
	coef := m.Coef.Data
	s := standardize(x, y)
	n := float64(x.Rows)
	// reconstruct standardized beta
	for j := 0; j < x.Cols; j++ {
		beta := coef[j] * s.xScale[j]
		// residual in standardized space
		var rho float64
		for i := 0; i < x.Rows; i++ {
			pred := 0.0
			for k := 0; k < x.Cols; k++ {
				pred += s.x.At(i, k) * (coef[k] * s.xScale[k])
			}
			rho += s.x.At(i, j) * (s.y[i] - pred)
		}
		g := rho / n
		if beta == 0 {
			if math.Abs(g) > lambda+1e-6 {
				t.Fatalf("KKT violated for inactive feature %d: |g|=%v > lambda=%v", j, math.Abs(g), lambda)
			}
		} else {
			want := lambda * sign(beta)
			if math.Abs(g-want) > 1e-6 {
				t.Fatalf("KKT violated for active feature %d: g=%v want %v", j, g, want)
			}
		}
	}
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

func TestStandardizeConstantColumn(t *testing.T) {
	x := mat.FromRows([][]float64{{5, 1}, {5, 2}, {5, 3}})
	y := []float64{1, 2, 3}
	m := lasso(x, y, 0.001, Options{})
	if m.Coef.Data[0] != 0 {
		t.Fatalf("constant column got coefficient %v", m.Coef.Data[0])
	}
	if math.Abs(m.PredictTask([]float64{5, 2}, 0)-2) > 1e-3 {
		t.Fatal("prediction wrong with constant column present")
	}
}

func TestCVLassoPicksReasonableLambda(t *testing.T) {
	r := rng.New(9)
	x, y := sparseData(r, 200, 10, 0.3)
	m, lam := CVMultiTaskLasso(rng.New(1), x, column(y), 5, 15, Options{})
	if lam <= 0 {
		t.Fatalf("lambda = %v", lam)
	}
	if m.Coef.Data[0] == 0 || m.Coef.Data[3] == 0 {
		t.Fatalf("CV lasso dropped true features: %v", m.Coef.Data)
	}
	pred := predictAll(m, x)
	if stats.R2(y, pred) < 0.9 {
		t.Fatalf("CV lasso R2 = %v", stats.R2(y, pred))
	}
}

func TestLogGrid(t *testing.T) {
	g := logGrid(1, 0.01, 3)
	want := []float64{1, 0.1, 0.01}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("logGrid = %v", g)
		}
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ z, g, want float64 }{
		{3, 1, 2}, {-3, 1, -2}, {0.5, 1, 0}, {-0.5, 1, 0}, {1, 1, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.z, c.g); got != c.want {
			t.Fatalf("softThreshold(%v,%v) = %v want %v", c.z, c.g, got, c.want)
		}
	}
}

func BenchmarkLasso200x20(b *testing.B) {
	r := rng.New(1)
	x, y := sparseData(r, 200, 20, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lasso(x, y, 0.05, Options{})
	}
}

// TestLassoPathWarmStartNoWorseThanCold: CVMultiTaskLasso walks each
// fold's grid with warm starts (MultiTaskLassoPath). At every lambda of
// a one-task path, on collinear log-runtime features, the warm-started
// model's objective is no higher than a cold-start fit's at that lambda,
// from either this solver or the single-task coordinate-descent oracle,
// up to the gap the solver certifies.
func TestLassoPathWarmStartNoWorseThanCold(t *testing.T) {
	opt := Options{}.withDefaults()
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		x, ys := scalingData(r, 15+r.Intn(50), 0.05)
		y := ys.Col(int(seed) % ys.Cols)
		yc := column(y)
		lambdas := logGrid(MultiTaskLambdaMax(x, yc), 1e-3, 12)
		slack := opt.Tol * centeredSS(yc) / float64(x.Rows)
		for i, m := range MultiTaskLassoPath(x, yc, lambdas, Options{}) {
			lam := lambdas[i]
			warm := mtObjective(x, yc, m, lam)
			for _, cold := range []struct {
				name string
				m    *MultiTaskModel
			}{
				{"MultiTaskLasso", MultiTaskLasso(x, yc, lam, Options{})},
				{"oracle", oracleLasso(x, y, lam, Options{}).model()},
			} {
				if c := mtObjective(x, yc, cold.m, lam); warm > c+slack+1e-12*math.Abs(c) {
					t.Fatalf("seed %d lambda %d: warm-started objective %.15g above the cold %s fit's %.15g", seed, i, warm, cold.name, c)
				}
			}
		}
	}
}
