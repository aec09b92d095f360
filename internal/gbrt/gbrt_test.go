package gbrt

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/stats"
)

func waveData(r *rng.Source, n int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = math.Sin(4*x.At(i, 0)) + 2*x.At(i, 1) + 0.05*r.Norm()
	}
	return x, y
}

// predictRows predicts every row of x.
func predictRows(m *Model, x *mat.Dense) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = m.Predict(x.Row(i))
	}
	return out
}

func TestFitAccuracy(t *testing.T) {
	r := rng.New(1)
	xTr, yTr := waveData(r, 500)
	xTe, yTe := waveData(r, 200)
	m := Fit(xTr, yTr, Defaults(), nil)
	pred := predictRows(m, xTe)
	if r2 := stats.R2(yTe, pred); r2 < 0.95 {
		t.Fatalf("GBRT R2 = %v", r2)
	}
}

func TestMoreRoundsReduceTrainingError(t *testing.T) {
	r := rng.New(2)
	x, y := waveData(r, 300)
	prev := math.Inf(1)
	for _, rounds := range []int{5, 25, 100} {
		p := Defaults()
		p.Rounds = rounds
		m := Fit(x, y, p, nil)
		e := stats.RMSE(y, predictRows(m, x))
		if e > prev+1e-9 {
			t.Fatalf("training error rose: %v -> %v at %d rounds", prev, e, rounds)
		}
		prev = e
	}
}

func TestZeroRoundsDefaulted(t *testing.T) {
	r := rng.New(3)
	x, y := waveData(r, 60)
	m := Fit(x, y, Params{}, nil)
	if len(m.Trees) != Defaults().Rounds {
		t.Fatalf("defaulting failed: %d trees", len(m.Trees))
	}
}

func TestBasePredictionIsMean(t *testing.T) {
	r := rng.New(4)
	x, y := waveData(r, 100)
	p := Defaults()
	p.Rounds = 1
	m := Fit(x, y, p, nil)
	if math.Abs(m.Base-stats.Mean(y)) > 1e-12 {
		t.Fatalf("base = %v, mean = %v", m.Base, stats.Mean(y))
	}
}

func TestSubsampleRequiresRNG(t *testing.T) {
	r := rng.New(6)
	x, y := waveData(r, 50)
	p := Defaults()
	p.Subsample = 0.5
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Fit(x, y, p, nil)
}

func TestSubsampleStillLearns(t *testing.T) {
	r := rng.New(7)
	xTr, yTr := waveData(r, 400)
	xTe, yTe := waveData(r, 150)
	p := Defaults()
	p.Subsample = 0.6
	m := Fit(xTr, yTr, p, r)
	pred := predictRows(m, xTe)
	if r2 := stats.R2(yTe, pred); r2 < 0.9 {
		t.Fatalf("subsampled GBRT R2 = %v", r2)
	}
}

func TestShrinkageTradeoff(t *testing.T) {
	// with few rounds, larger shrinkage fits training data faster
	r := rng.New(8)
	x, y := waveData(r, 200)
	pSlow := Defaults()
	pSlow.Rounds = 10
	pSlow.Shrinkage = 0.01
	pFast := Defaults()
	pFast.Rounds = 10
	pFast.Shrinkage = 0.5
	eSlow := stats.RMSE(y, predictRows(Fit(x, y, pSlow, nil), x))
	eFast := stats.RMSE(y, predictRows(Fit(x, y, pFast, nil), x))
	if eFast >= eSlow {
		t.Fatalf("shrinkage 0.5 (%v) not faster-fitting than 0.01 (%v) at 10 rounds", eFast, eSlow)
	}
}

func TestPredictDimPanics(t *testing.T) {
	r := rng.New(9)
	x, y := waveData(r, 40)
	p := Defaults()
	p.Rounds = 3
	m := Fit(x, y, p, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Fit(mat.NewDense(0, 1), nil, Defaults(), nil)
}

func BenchmarkFit(b *testing.B) {
	r := rng.New(1)
	x, y := waveData(r, 300)
	p := Defaults()
	p.Rounds = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(x, y, p, nil)
	}
}
