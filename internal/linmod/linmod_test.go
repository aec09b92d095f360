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

func TestOLSExactRecovery(t *testing.T) {
	r := rng.New(1)
	x, y := sparseData(r, 100, 5, 0)
	m, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 0, 0, -2, 0}
	for j := range want {
		if math.Abs(m.Coef[j]-want[j]) > 1e-8 {
			t.Fatalf("coef = %v", m.Coef)
		}
	}
	if math.Abs(m.Intercept-1) > 1e-8 {
		t.Fatalf("intercept = %v", m.Intercept)
	}
}

func TestOLSRankDeficient(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	if _, err := OLS(x, []float64{1, 2, 3}); err == nil {
		t.Fatal("OLS accepted collinear design")
	}
}

func TestRidgeShrinksTowardZero(t *testing.T) {
	r := rng.New(2)
	x, y := sparseData(r, 80, 5, 0.1)
	small := Ridge(x, y, 1e-6)
	big := Ridge(x, y, 100)
	if mat.Norm2(big.Coef) >= mat.Norm2(small.Coef) {
		t.Fatalf("ridge did not shrink: %v vs %v", mat.Norm2(big.Coef), mat.Norm2(small.Coef))
	}
	// tiny lambda approximates OLS
	ols, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ols.Coef {
		if math.Abs(small.Coef[j]-ols.Coef[j]) > 1e-3 {
			t.Fatalf("ridge(1e-6) far from OLS: %v vs %v", small.Coef, ols.Coef)
		}
	}
}

func TestRidgeNegativeLambdaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Ridge(mat.NewDense(2, 1), []float64{1, 2}, -1)
}

func TestRidgeHandlesCollinear(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	y := []float64{2, 4, 6, 8}
	m := Ridge(x, y, 0.1)
	// perfectly collinear: ridge splits the weight; prediction must be good
	pred := m.PredictBatch(x, nil)
	if stats.R2(y, pred) < 0.95 {
		t.Fatalf("ridge R2 on collinear = %v", stats.R2(y, pred))
	}
	if math.Abs(m.Coef[0]-m.Coef[1]) > 1e-6 {
		t.Fatalf("ridge should split collinear weight evenly: %v", m.Coef)
	}
}

func TestLassoZeroLambdaMatchesOLS(t *testing.T) {
	r := rng.New(3)
	x, y := sparseData(r, 120, 4, 0.05)
	las := Lasso(x, y, 0, Options{MaxIter: 5000, Tol: 1e-10})
	ols, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ols.Coef {
		if math.Abs(las.Coef[j]-ols.Coef[j]) > 1e-5 {
			t.Fatalf("lasso(0) != OLS: %v vs %v", las.Coef, ols.Coef)
		}
	}
}

func TestLassoSparsity(t *testing.T) {
	r := rng.New(4)
	x, y := sparseData(r, 200, 10, 0.1)
	m := Lasso(x, y, 0.1, Options{})
	nonzero := 0
	for _, c := range m.Coef {
		if c != 0 {
			nonzero++
		}
	}
	if nonzero > 4 {
		t.Fatalf("lasso kept %d features, want few (coefs %v)", nonzero, m.Coef)
	}
	if m.Coef[0] == 0 || m.Coef[3] == 0 {
		t.Fatalf("lasso dropped a true feature: %v", m.Coef)
	}
}

func TestLassoAllZeroAtLambdaMax(t *testing.T) {
	r := rng.New(5)
	x, y := sparseData(r, 100, 6, 0.1)
	lmax := LambdaMax(x, y)
	m := Lasso(x, y, lmax*1.0001, Options{})
	for _, c := range m.Coef {
		if c != 0 {
			t.Fatalf("coef non-zero above LambdaMax: %v", m.Coef)
		}
	}
	// Just below lambda max, at least one coefficient activates.
	m2 := Lasso(x, y, lmax*0.95, Options{})
	any := false
	for _, c := range m2.Coef {
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
	m := Lasso(x, y, lambda, Options{MaxIter: 10000, Tol: 1e-12})
	s := standardize(x, y)
	n := float64(x.Rows)
	// reconstruct standardized beta
	for j := 0; j < x.Cols; j++ {
		beta := m.Coef[j] * s.xScale[j]
		// residual in standardized space
		var rho float64
		for i := 0; i < x.Rows; i++ {
			pred := 0.0
			for k := 0; k < x.Cols; k++ {
				pred += s.x.At(i, k) * (m.Coef[k] * s.xScale[k])
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

func TestElasticNetBetweenRidgeAndLasso(t *testing.T) {
	r := rng.New(7)
	x, y := sparseData(r, 150, 8, 0.1)
	lam := 0.2
	lasso := ElasticNet(x, y, lam, 1, Options{})
	enet := ElasticNet(x, y, lam, 0.5, Options{})
	nz := func(m *Model) int {
		c := 0
		for _, v := range m.Coef {
			if v != 0 {
				c++
			}
		}
		return c
	}
	if nz(enet) < nz(lasso) {
		t.Fatalf("elastic net sparser than lasso: %d vs %d", nz(enet), nz(lasso))
	}
}

func TestElasticNetBadParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ElasticNet(mat.NewDense(2, 1), []float64{1, 2}, 0.1, 2, Options{})
}

func TestPredictBatchAndDimPanic(t *testing.T) {
	m := &Model{Coef: []float64{2}, Intercept: 1}
	x := mat.FromRows([][]float64{{1}, {2}})
	got := m.PredictBatch(x, nil)
	if got[0] != 3 || got[1] != 5 {
		t.Fatalf("PredictBatch = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Predict([]float64{1, 2})
}

func TestStandardizeConstantColumn(t *testing.T) {
	x := mat.FromRows([][]float64{{5, 1}, {5, 2}, {5, 3}})
	y := []float64{1, 2, 3}
	m := Lasso(x, y, 0.001, Options{})
	if m.Coef[0] != 0 {
		t.Fatalf("constant column got coefficient %v", m.Coef[0])
	}
	if math.Abs(m.Predict([]float64{5, 2})-2) > 1e-3 {
		t.Fatal("prediction wrong with constant column present")
	}
}

func TestCVLassoPicksReasonableLambda(t *testing.T) {
	r := rng.New(9)
	x, y := sparseData(r, 200, 10, 0.3)
	m, lam := CVLasso(rng.New(1), x, y, 5, 15, Options{})
	if lam <= 0 {
		t.Fatalf("lambda = %v", lam)
	}
	if m.Coef[0] == 0 || m.Coef[3] == 0 {
		t.Fatalf("CV lasso dropped true features: %v", m.Coef)
	}
	pred := m.PredictBatch(x, nil)
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
		Lasso(x, y, 0.05, Options{})
	}
}
