package knn

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/stats"
)

func linData(r *rng.Source, n int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Uniform(0, 10))
		x.Set(i, 1, r.Uniform(0, 10))
		y[i] = 2*x.At(i, 0) + x.At(i, 1)
	}
	return x, y
}

func TestK1ExactOnTrainingPoints(t *testing.T) {
	r := rng.New(1)
	x, y := linData(r, 50)
	m := New(x, y, 1, false)
	for i := 0; i < x.Rows; i++ {
		if math.Abs(m.Predict(x.Row(i))-y[i]) > 1e-12 {
			t.Fatalf("k=1 not exact at row %d", i)
		}
	}
}

func TestWeightedExactMatchShortCircuit(t *testing.T) {
	r := rng.New(2)
	x, y := linData(r, 30)
	m := New(x, y, 5, true)
	if got := m.Predict(x.Row(3)); got != y[3] {
		t.Fatalf("weighted kNN on exact training point = %v, want %v", got, y[3])
	}
}

func TestSmoothInterpolation(t *testing.T) {
	r := rng.New(3)
	x, y := linData(r, 400)
	xTe, yTe := linData(r, 100)
	m := New(x, y, 5, false)
	pred := make([]float64, xTe.Rows)
	for i := range pred {
		pred[i] = m.Predict(xTe.Row(i))
	}
	if r2 := stats.R2(yTe, pred); r2 < 0.95 {
		t.Fatalf("kNN interpolation R2 = %v", r2)
	}
}

func TestCannotExtrapolate(t *testing.T) {
	// the defining failure mode: predictions are bounded by training targets
	r := rng.New(4)
	x, y := linData(r, 200)
	m := New(x, y, 3, false)
	maxY := stats.Max(y)
	// query far outside the training domain
	far := m.Predict([]float64{100, 100})
	if far > maxY {
		t.Fatalf("kNN extrapolated beyond training max: %v > %v", far, maxY)
	}
}

func TestWeightedBeatsUnweightedNearBoundary(t *testing.T) {
	// sanity check only: both must be finite and in range
	r := rng.New(5)
	x, y := linData(r, 100)
	mu := New(x, y, 7, false)
	mw := New(x, y, 7, true)
	q := []float64{5, 5}
	pu, pw := mu.Predict(q), mw.Predict(q)
	if math.IsNaN(pu) || math.IsNaN(pw) {
		t.Fatal("NaN prediction")
	}
}

func TestScalingInvariance(t *testing.T) {
	// internal standardization: multiplying one feature's unit by 1000
	// must not change neighbour structure.
	r := rng.New(6)
	x, y := linData(r, 150)
	xScaled := x.Clone()
	for i := 0; i < x.Rows; i++ {
		xScaled.Set(i, 1, xScaled.At(i, 1)*1000)
	}
	m1 := New(x, y, 5, false)
	m2 := New(xScaled, y, 5, false)
	q1 := []float64{5, 5}
	q2 := []float64{5, 5000}
	if math.Abs(m1.Predict(q1)-m2.Predict(q2)) > 1e-9 {
		t.Fatal("kNN sensitive to feature units despite standardization")
	}
}

func TestPanics(t *testing.T) {
	r := rng.New(7)
	x, y := linData(r, 10)
	cases := []func(){
		func() { New(x, y[:5], 3, false) },                   // shape mismatch
		func() { New(mat.NewDense(0, 2), nil, 1, false) },    // empty
		func() { New(x, y, 0, false) },                       // k < 1
		func() { New(x, y, 11, false) },                      // k > n
		func() { New(x, y, 3, false).Predict([]float64{1}) }, // dim
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTrainingDataCopied(t *testing.T) {
	r := rng.New(8)
	x, y := linData(r, 20)
	m := New(x, y, 1, false)
	before := m.Predict(x.Row(0))
	y[0] = 1e9 // mutate caller's slice
	x.Set(0, 0, 1e9)
	after := m.Predict([]float64{x.At(1, 0), x.At(1, 1)})
	_ = after
	if m.Predict([]float64{0, 0}) == 1e9 {
		t.Fatal("model aliases caller's target slice")
	}
	_ = before
}

func TestKAccessor(t *testing.T) {
	r := rng.New(9)
	x, y := linData(r, 10)
	if New(x, y, 4, false).K() != 4 {
		t.Fatal("K() wrong")
	}
}

func BenchmarkPredict(b *testing.B) {
	r := rng.New(1)
	x, y := linData(r, 1000)
	m := New(x, y, 5, false)
	q := []float64{5, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(q)
	}
}
