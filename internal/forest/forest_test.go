package forest

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/stats"
)

// friedman1-style data: y = 10 sin(pi x0 x1) + 20 (x2-.5)^2 + 10 x3 + 5 x4 + noise
func friedman(r *rng.Source, n int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 6) // feature 5 is pure noise
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 6; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = 10*math.Sin(math.Pi*x.At(i, 0)*x.At(i, 1)) +
			20*math.Pow(x.At(i, 2)-0.5, 2) +
			10*x.At(i, 3) + 5*x.At(i, 4) + 0.1*r.Norm()
	}
	return x, y
}

func TestFitPredictAccuracy(t *testing.T) {
	r := rng.New(1)
	xTr, yTr := friedman(r, 500)
	xTe, yTe := friedman(r, 200)
	p := Defaults()
	p.Trees = 60
	f := Fit(xTr, yTr, p, r)
	pred := f.PredictBatch(xTe, nil)
	if r2 := stats.R2(yTe, pred); r2 < 0.8 {
		t.Fatalf("forest test R2 = %v, want >= 0.8", r2)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	r1 := rng.New(7)
	x1, y1 := friedman(r1, 200)
	p := Defaults()
	p.Trees = 20
	p.Workers = 1
	f1 := Fit(x1, y1, p, rng.New(42))

	r2 := rng.New(7)
	x2, y2 := friedman(r2, 200)
	p.Workers = 4 // different parallelism must not change the model
	f2 := Fit(x2, y2, p, rng.New(42))

	probe := []float64{0.3, 0.6, 0.2, 0.9, 0.5, 0.1}
	if f1.Predict(probe) != f2.Predict(probe) {
		t.Fatal("forest not deterministic across worker counts")
	}
}

func TestPredictIsTreeMean(t *testing.T) {
	r := rng.New(3)
	x, y := friedman(r, 100)
	p := Defaults()
	p.Trees = 10
	f := Fit(x, y, p, r)
	v := x.Row(0)
	var s float64
	for _, tr := range f.Trees {
		s += tr.Predict(v)
	}
	if math.Abs(f.Predict(v)-s/10) > 1e-12 {
		t.Fatal("Predict != mean of tree predictions")
	}
}

func TestBaggingReducesVariance(t *testing.T) {
	// A 100-tree forest should generalize better than a single deep tree
	// on noisy data.
	r := rng.New(5)
	xTr, yTr := friedman(r, 300)
	xTe, yTe := friedman(r, 300)

	p1 := Defaults()
	p1.Trees = 1
	single := Fit(xTr, yTr, p1, rng.New(1))

	p2 := Defaults()
	p2.Trees = 100
	many := Fit(xTr, yTr, p2, rng.New(1))

	rmse1 := stats.RMSE(yTe, single.PredictBatch(xTe, nil))
	rmse100 := stats.RMSE(yTe, many.PredictBatch(xTe, nil))
	if rmse100 >= rmse1 {
		t.Fatalf("100 trees (%v) not better than 1 tree (%v)", rmse100, rmse1)
	}
}

func TestPredictQuantileOrdering(t *testing.T) {
	r := rng.New(13)
	x, y := friedman(r, 200)
	p := Defaults()
	p.Trees = 30
	f := Fit(x, y, p, r)
	v := x.Row(5)
	var q [3]float64
	f.PredictQuantilesInto(v, []float64{0.1, 0.5, 0.9}, nil, q[:])
	lo, med, hi := q[0], q[1], q[2]
	if !(lo <= med && med <= hi) {
		t.Fatalf("quantiles not ordered: %v %v %v", lo, med, hi)
	}
	mean := f.Predict(v)
	if mean < lo || mean > hi {
		t.Fatalf("mean %v outside [q10, q90] = [%v, %v]", mean, lo, hi)
	}
}

func TestPredictQuantilePanics(t *testing.T) {
	r := rng.New(14)
	x, y := friedman(r, 30)
	f := Fit(x, y, Params{Trees: 3, Tree: Defaults().Tree}, r)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.PredictQuantilesInto(x.Row(0), []float64{1.5}, nil, make([]float64, 1))
}

func TestPredictDimensionPanics(t *testing.T) {
	r := rng.New(17)
	x, y := friedman(r, 30)
	f := Fit(x, y, Params{Trees: 2, Tree: Defaults().Tree}, r)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Predict([]float64{1})
}

func TestFitEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Fit(mat.NewDense(0, 3), nil, Defaults(), rng.New(1))
}

func TestMaxFeaturesDefaultRule(t *testing.T) {
	// p/3 default must be at least 1 even for 1-2 feature problems.
	r := rng.New(19)
	x := mat.NewDense(50, 1)
	y := make([]float64, 50)
	for i := 0; i < 50; i++ {
		x.Set(i, 0, float64(i))
		y[i] = float64(i)
	}
	p := Defaults()
	p.Trees = 5
	f := Fit(x, y, p, r)
	pred := f.PredictBatch(x, nil)
	if stats.R2(y, pred) < 0.99 {
		t.Fatal("forest failed trivial 1-feature identity fit")
	}
}

func BenchmarkFit500x6x50Trees(b *testing.B) {
	r := rng.New(1)
	x, y := friedman(r, 500)
	p := Defaults()
	p.Trees = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(x, y, p, rng.New(uint64(i)))
	}
}

func BenchmarkPredict(b *testing.B) {
	r := rng.New(1)
	x, y := friedman(r, 500)
	p := Defaults()
	p.Trees = 100
	f := Fit(x, y, p, r)
	v := x.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(v)
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	r := rng.New(11)
	x, y := friedman(r, 300)
	p := Defaults()
	p.Trees = 30
	f := Fit(x, y, p, r)
	got := f.PredictBatch(x, make([]float64, x.Rows))
	for i := 0; i < x.Rows; i++ {
		if got[i] != f.Predict(x.Row(i)) {
			t.Fatalf("row %d: PredictBatch %v != Predict %v", i, got[i], f.Predict(x.Row(i)))
		}
	}
}

func TestPredictBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	r := rng.New(13)
	x, y := friedman(r, 200)
	p := Defaults()
	p.Trees = 10
	f := Fit(x, y, p, r)
	dst := make([]float64, x.Rows)
	if n := testing.AllocsPerRun(20, func() { f.PredictBatch(x, dst) }); n != 0 {
		t.Fatalf("PredictBatch with reused dst allocates %v times per call, want 0", n)
	}
}

func BenchmarkForestPredictBatch(b *testing.B) {
	r := rng.New(1)
	x, y := friedman(r, 2000)
	p := Defaults()
	p.Trees = 100
	f := Fit(x, y, p, r)
	dst := make([]float64, x.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatch(x, dst)
	}
}

func TestPredictQuantilesIntoMatchesSingleCalls(t *testing.T) {
	r := rng.New(9)
	x, y := friedman(r, 200)
	p := Defaults()
	p.Trees = 25
	f := Fit(x, y, p, r)
	probe := []float64{0.3, 0.6, 0.2, 0.9, 0.5, 0.1}

	qs := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	dst := make([]float64, len(qs))
	scratch := make([]float64, len(f.Trees))
	mean := f.PredictQuantilesInto(probe, qs, scratch, dst)

	if mean != f.Predict(probe) {
		t.Fatalf("mean %v != Predict %v (must be bit-identical)", mean, f.Predict(probe))
	}
	for i, q := range qs {
		var want [1]float64
		f.PredictQuantilesInto(probe, []float64{q}, nil, want[:])
		if dst[i] != want[0] {
			t.Fatalf("quantile %v: %v != single-quantile call %v", q, dst[i], want[0])
		}
	}
	// Nil scratch allocates internally but gives the same answers.
	dst2 := make([]float64, len(qs))
	f.PredictQuantilesInto(probe, qs, nil, dst2)
	for i := range dst {
		if dst[i] != dst2[i] {
			t.Fatal("nil-scratch path diverges")
		}
	}
}

func TestPredictQuantilesIntoZeroAllocs(t *testing.T) {
	r := rng.New(10)
	x, y := friedman(r, 150)
	p := Defaults()
	p.Trees = 20
	f := Fit(x, y, p, r)
	probe := []float64{0.3, 0.6, 0.2, 0.9, 0.5, 0.1}
	qs := []float64{0.1, 0.9}
	dst := make([]float64, 2)
	scratch := make([]float64, len(f.Trees))
	allocs := testing.AllocsPerRun(50, func() {
		f.PredictQuantilesInto(probe, qs, scratch, dst)
	})
	if allocs != 0 {
		t.Fatalf("PredictQuantilesInto with scratch allocates %v per call", allocs)
	}
}

func TestPredictQuantilesIntoPanics(t *testing.T) {
	r := rng.New(11)
	x, y := friedman(r, 100)
	p := Defaults()
	p.Trees = 10
	f := Fit(x, y, p, r)
	probe := []float64{0.3, 0.6, 0.2, 0.9, 0.5, 0.1}
	for name, fn := range map[string]func(){
		"bad quantile":   func() { f.PredictQuantilesInto(probe, []float64{1.5}, nil, make([]float64, 1)) },
		"short dst":      func() { f.PredictQuantilesInto(probe, []float64{0.1, 0.9}, nil, make([]float64, 1)) },
		"short scratch":  func() { f.PredictQuantilesInto(probe, []float64{0.1}, make([]float64, 2), make([]float64, 1)) },
		"wrong features": func() { f.PredictQuantilesInto([]float64{1}, []float64{0.1}, nil, make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
