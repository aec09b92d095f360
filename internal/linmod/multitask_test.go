package linmod

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// mtData generates T tasks sharing support {0, 2}: y_t = a_t*x0 + b_t*x2 + c_t.
func mtData(r *rng.Source, n, p, tasks int, noise float64) (*mat.Dense, *mat.Dense) {
	x := mat.NewDense(n, p)
	y := mat.NewDense(n, tasks)
	coefA := make([]float64, tasks)
	coefB := make([]float64, tasks)
	for t := 0; t < tasks; t++ {
		coefA[t] = 1 + float64(t)
		coefB[t] = -2 + 0.5*float64(t)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			x.Set(i, j, r.Norm())
		}
		for t := 0; t < tasks; t++ {
			y.Set(i, t, coefA[t]*x.At(i, 0)+coefB[t]*x.At(i, 2)+float64(t)+noise*r.Norm())
		}
	}
	return x, y
}

func TestMultiTaskRecoversSharedSupport(t *testing.T) {
	r := rng.New(1)
	x, y := mtData(r, 200, 8, 3, 0.05)
	m := MultiTaskLasso(x, y, 0.02, Options{})
	active := m.ActiveFeatures()
	hasZero, hasTwo := false, false
	for _, j := range active {
		switch j {
		case 0:
			hasZero = true
		case 2:
			hasTwo = true
		}
	}
	if !hasZero || !hasTwo {
		t.Fatalf("true support not recovered, active = %v", active)
	}
	if len(active) > 4 {
		t.Fatalf("too many active features: %v", active)
	}
}

func TestMultiTaskSharedSparsityPattern(t *testing.T) {
	// the defining property of L2,1: a feature is zero in ALL tasks or
	// non-zero in (generically) all tasks.
	r := rng.New(2)
	x, y := mtData(r, 150, 6, 4, 0.1)
	m := MultiTaskLasso(x, y, 0.05, Options{})
	for j := 0; j < m.Coef.Rows; j++ {
		row := m.Coef.Row(j)
		zeros, nonzeros := 0, 0
		for _, v := range row {
			if v == 0 {
				zeros++
			} else {
				nonzeros++
			}
		}
		if zeros > 0 && nonzeros > 0 {
			t.Fatalf("feature %d has mixed zero/non-zero across tasks: %v", j, row)
		}
	}
}

func TestMultiTaskAllZeroAboveLambdaMax(t *testing.T) {
	r := rng.New(3)
	x, y := mtData(r, 100, 5, 3, 0.1)
	lmax := MultiTaskLambdaMax(x, y)
	m := MultiTaskLasso(x, y, lmax*1.001, Options{})
	if len(m.ActiveFeatures()) != 0 {
		t.Fatalf("active features above lambda max: %v", m.ActiveFeatures())
	}
	m2 := MultiTaskLasso(x, y, lmax*0.9, Options{})
	if len(m2.ActiveFeatures()) == 0 {
		t.Fatal("nothing active just below lambda max")
	}
}

func TestMultiTaskIdenticalTasksMatchesScaledLasso(t *testing.T) {
	// With T identical task columns, the multitask solution at lambda equals
	// the single-task lasso at lambda/sqrt(T) (group norm symmetry).
	r := rng.New(4)
	n, p, tasks := 150, 6, 4
	x := mat.NewDense(n, p)
	ySingle := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			x.Set(i, j, r.Norm())
		}
		ySingle[i] = 2*x.At(i, 1) - x.At(i, 4) + 0.1*r.Norm()
	}
	y := mat.NewDense(n, tasks)
	for i := 0; i < n; i++ {
		for t2 := 0; t2 < tasks; t2++ {
			y.Set(i, t2, ySingle[i])
		}
	}
	lambda := 0.1
	mt := MultiTaskLasso(x, y, lambda, Options{MaxIter: 5000, Tol: 1e-10})
	st := lasso(x, ySingle, lambda/math.Sqrt(float64(tasks)), Options{MaxIter: 5000, Tol: 1e-10})
	for j := 0; j < p; j++ {
		for t2 := 0; t2 < tasks; t2++ {
			if math.Abs(mt.Coef.At(j, t2)-st.Coef.Data[j]) > 1e-4 {
				t.Fatalf("feature %d task %d: mt=%v st=%v", j, t2, mt.Coef.At(j, t2), st.Coef.Data[j])
			}
		}
	}
}

func TestMultiTaskPredictConsistency(t *testing.T) {
	r := rng.New(5)
	x, y := mtData(r, 100, 5, 3, 0.05)
	m := MultiTaskLasso(x, y, 0.01, Options{})
	v := x.Row(7)
	all := m.Predict(v)
	for t2 := 0; t2 < 3; t2++ {
		if math.Abs(all[t2]-m.PredictTask(v, t2)) > 1e-12 {
			t.Fatalf("Predict and PredictTask disagree on task %d", t2)
		}
	}
}

func TestMultiTaskAccuratePredictions(t *testing.T) {
	r := rng.New(6)
	x, y := mtData(r, 300, 8, 3, 0.05)
	xTe, yTe := mtData(r, 100, 8, 3, 0.05)
	m := MultiTaskLasso(x, y, 0.01, Options{})
	var sse, sst float64
	means := make([]float64, 3)
	for t2 := 0; t2 < 3; t2++ {
		var s float64
		for i := 0; i < yTe.Rows; i++ {
			s += yTe.At(i, t2)
		}
		means[t2] = s / float64(yTe.Rows)
	}
	for i := 0; i < xTe.Rows; i++ {
		pred := m.Predict(xTe.Row(i))
		for t2 := 0; t2 < 3; t2++ {
			d := yTe.At(i, t2) - pred[t2]
			sse += d * d
			dd := yTe.At(i, t2) - means[t2]
			sst += dd * dd
		}
	}
	if r2 := 1 - sse/sst; r2 < 0.95 {
		t.Fatalf("multitask R2 = %v", r2)
	}
}

func TestMultiTaskObjectiveNotWorseThanZeroAndPerturbed(t *testing.T) {
	r := rng.New(7)
	x, y := mtData(r, 120, 5, 3, 0.1)
	lambda := 0.05
	m := MultiTaskLasso(x, y, lambda, Options{MaxIter: 5000, Tol: 1e-10})
	obj := mtObjective(x, y, m, lambda)

	zero := &MultiTaskModel{Coef: mat.NewDense(5, 3), Intercept: make([]float64, 3), Tasks: 3}
	// give the zero model the optimal intercepts (task means)
	for t2 := 0; t2 < 3; t2++ {
		var s float64
		for i := 0; i < y.Rows; i++ {
			s += y.At(i, t2)
		}
		zero.Intercept[t2] = s / float64(y.Rows)
	}
	if zobj := mtObjective(x, y, zero, lambda); obj > zobj+1e-9 {
		t.Fatalf("solution objective %v worse than zero model %v", obj, zobj)
	}
	// random perturbations must not improve the objective
	for trial := 0; trial < 20; trial++ {
		pert := &MultiTaskModel{Coef: m.Coef.Clone(), Intercept: append([]float64(nil), m.Intercept...), Tasks: 3}
		j := r.Intn(5)
		t2 := r.Intn(3)
		pert.Coef.Set(j, t2, pert.Coef.At(j, t2)+r.Normal(0, 0.05))
		if pobj := mtObjective(x, y, pert, lambda); pobj < obj-1e-6 {
			t.Fatalf("perturbation improved objective: %v -> %v", obj, pobj)
		}
	}
}

func TestMultiTaskLambdaMaxShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MultiTaskLambdaMax(mat.NewDense(3, 2), mat.NewDense(4, 2))
}

func TestMultiTaskNegativeLambdaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MultiTaskLasso(mat.NewDense(2, 1), mat.NewDense(2, 1), -0.1, Options{})
}

func TestMultiTaskPredictDimPanics(t *testing.T) {
	r := rng.New(8)
	x, y := mtData(r, 50, 4, 2, 0.1)
	m := MultiTaskLasso(x, y, 0.01, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestCVMultiTaskLasso(t *testing.T) {
	r := rng.New(9)
	x, y := mtData(r, 200, 8, 3, 0.2)
	m, lam := CVMultiTaskLasso(rng.New(2), x, y, 4, 10, Options{})
	if lam <= 0 {
		t.Fatalf("lambda = %v", lam)
	}
	active := m.ActiveFeatures()
	hasZero, hasTwo := false, false
	for _, j := range active {
		if j == 0 {
			hasZero = true
		}
		if j == 2 {
			hasTwo = true
		}
	}
	if !hasZero || !hasTwo {
		t.Fatalf("CV multitask missed support: %v", active)
	}
}

func TestMultiTaskConstantFeature(t *testing.T) {
	r := rng.New(10)
	n := 60
	x := mat.NewDense(n, 3)
	y := mat.NewDense(n, 2)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 7) // constant
		x.Set(i, 1, r.Norm())
		x.Set(i, 2, r.Norm())
		y.Set(i, 0, x.At(i, 1))
		y.Set(i, 1, 2*x.At(i, 1))
	}
	m := MultiTaskLasso(x, y, 0.001, Options{})
	if m.Coef.At(0, 0) != 0 || m.Coef.At(0, 1) != 0 {
		t.Fatal("constant feature received non-zero coefficient")
	}
}

func BenchmarkMultiTaskLasso(b *testing.B) {
	r := rng.New(1)
	x, y := mtData(r, 200, 10, 4, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiTaskLasso(x, y, 0.05, Options{})
	}
}

// scalingData mimics one cluster of the extrapolation level: n
// configurations whose features are log runtimes at the six small scales
// 2..64 and whose targets are log runtimes at the four large scales
// 128..1024, all drawn from one Amdahl-plus-communication curve family
// with per-configuration coefficients and multiplicative noise. The
// features are collinear the way real log-runtime curves are.
func scalingData(r *rng.Source, n int, noise float64) (*mat.Dense, *mat.Dense) {
	small := []float64{2, 4, 8, 16, 32, 64}
	large := []float64{128, 256, 512, 1024}
	x := mat.NewDense(n, len(small))
	y := mat.NewDense(n, len(large))
	for i := 0; i < n; i++ {
		serial := math.Exp(r.Normal(0, 1))
		work := math.Exp(r.Normal(3, 1))
		comm := math.Exp(r.Normal(-3, 1))
		curve := func(p float64) float64 {
			return math.Log((serial + work/p + comm*math.Log2(p)) * math.Exp(noise*r.Norm()))
		}
		for j, p := range small {
			x.Set(i, j, curve(p))
		}
		for t, p := range large {
			y.Set(i, t, curve(p))
		}
	}
	return x, y
}

// TestMultiTaskObjectiveNoHigherThanOracle: on collinear log-runtime
// problems, at every lambda of a CV grid, the path solver's objective is
// no higher than the cold-start coordinate-descent oracle's (up to the
// gap it certifies), and it certifies that gap inside MaxIter.
func TestMultiTaskObjectiveNoHigherThanOracle(t *testing.T) {
	opt := Options{}.withDefaults()
	maxIters := 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		x, y := scalingData(r, 12+r.Intn(60), 0.02+0.1*r.Float64())
		lambdas := logGrid(MultiTaskLambdaMax(x, y), 1e-3, 12)
		path := MultiTaskLassoPath(x, y, lambdas, Options{})
		yy := centeredSS(y)
		for i, lam := range lambdas {
			m := path[i]
			if m.Gap > opt.Tol || m.Iterations > opt.MaxIter {
				t.Fatalf("seed %d lambda %d: gap %g after %d iterations", seed, i, m.Gap, m.Iterations)
			}
			if m.Iterations > maxIters {
				maxIters = m.Iterations
			}
			got := mtObjective(x, y, m, lam)
			want := mtObjective(x, y, oracleMultiTaskLasso(x, y, lam, Options{}), lam)
			if slack := opt.Tol*yy/float64(x.Rows) + 1e-12*math.Abs(want); got > want+slack {
				t.Fatalf("seed %d lambda %d (%g): objective %.15g above the oracle's %.15g", seed, i, lam, got, want)
			}
		}
	}
	t.Logf("longest solve: %d iterations", maxIters)
}

// centeredSS is ‖Y − Ȳ‖²_F, the scale of the solver's relative gap.
func centeredSS(y *mat.Dense) float64 {
	var ss float64
	for t := 0; t < y.Cols; t++ {
		col := y.Col(t)
		var mu float64
		for _, v := range col {
			mu += v
		}
		mu /= float64(len(col))
		for _, v := range col {
			ss += (v - mu) * (v - mu)
		}
	}
	return ss
}

// BenchmarkCVMultiTaskLasso runs one cluster's cross-validated fit at the
// benchmark's shape: ~40 anchor rows of six collinear log-runtime
// features, four target scales, 4 folds and 12 lambdas.
func BenchmarkCVMultiTaskLasso(b *testing.B) {
	x, y := scalingData(rng.New(1), 40, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CVMultiTaskLasso(rng.New(2), x, y, 4, 12, Options{})
	}
}
