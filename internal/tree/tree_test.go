package tree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/stats"
)

// step data: y = 1 if x0 > 0.5 else 0 — a single split fits it exactly.
func stepData() (*mat.Dense, []float64) {
	x := mat.FromRows([][]float64{{0.1}, {0.2}, {0.3}, {0.4}, {0.6}, {0.7}, {0.8}, {0.9}})
	y := []float64{0, 0, 0, 0, 1, 1, 1, 1}
	return x, y
}

// predictRows predicts every row of x.
func predictRows(tr *Tree, x *mat.Dense) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = tr.Predict(x.Row(i))
	}
	return out
}

func TestFitStepFunction(t *testing.T) {
	x, y := stepData()
	tr := Fit(x, y, Defaults(), nil)
	for i := 0; i < x.Rows; i++ {
		if got := tr.Predict(x.Row(i)); got != y[i] {
			t.Fatalf("row %d: predict %v want %v", i, got, y[i])
		}
	}
	if tr.Predict([]float64{0.45}) != 0 || tr.Predict([]float64{0.55}) != 1 {
		t.Fatal("threshold placed wrongly")
	}
}

func TestSingleLeafWhenConstantTarget(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {2}, {3}})
	y := []float64{5, 5, 5}
	tr := Fit(x, y, Defaults(), nil)
	if len(tr.Nodes) != 1 {
		t.Fatalf("constant target grew %d nodes, want a single leaf", len(tr.Nodes))
	}
	if tr.Predict([]float64{99}) != 5 {
		t.Fatal("wrong constant prediction")
	}
}

func TestSingleLeafWhenConstantFeatures(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {1}, {1}})
	y := []float64{1, 2, 3}
	tr := Fit(x, y, Defaults(), nil)
	if len(tr.Nodes) != 1 {
		t.Fatal("cannot split identical features")
	}
	if tr.Predict([]float64{1}) != 2 {
		t.Fatalf("prediction %v want mean 2", tr.Predict([]float64{1}))
	}
}

func TestMaxDepthRespected(t *testing.T) {
	r := rng.New(1)
	n := 200
	x := mat.NewDense(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Float64())
		x.Set(i, 1, r.Float64())
		y[i] = math.Sin(5*x.At(i, 0)) + x.At(i, 1)
	}
	p := Defaults()
	p.MaxDepth = 3
	tr := Fit(x, y, p, nil)
	if d := depth(tr, 0); d > 3 {
		t.Fatalf("depth %d > 3", d)
	}
}

// depth returns the longest root-to-leaf edge count below node i.
func depth(tr *Tree, i int32) int {
	n := &tr.Nodes[i]
	if n.Feature < 0 {
		return 0
	}
	return 1 + max(depth(tr, n.Left), depth(tr, n.Right))
}

func TestMinLeafSamplesRespected(t *testing.T) {
	r := rng.New(2)
	n := 100
	x := mat.NewDense(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Float64())
		y[i] = x.At(i, 0)
	}
	p := Defaults()
	p.MinLeafSamples = 10
	tr := Fit(x, y, p, nil)
	for _, node := range tr.Nodes {
		if node.Feature < 0 && node.Samples < 10 {
			t.Fatalf("leaf with %d < 10 samples", node.Samples)
		}
	}
}

func TestDeepTreeInterpolatesTrainingData(t *testing.T) {
	// With MinLeaf=1 and unique x, a regression tree memorizes the data.
	r := rng.New(3)
	n := 64
	x := mat.NewDense(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i)) // unique
		y[i] = r.Norm()
	}
	tr := Fit(x, y, Defaults(), nil)
	for i := 0; i < n; i++ {
		if math.Abs(tr.Predict(x.Row(i))-y[i]) > 1e-12 {
			t.Fatalf("row %d not memorized", i)
		}
	}
}

func TestFitIndicesBootstrap(t *testing.T) {
	x, y := stepData()
	idx := []int{0, 0, 1, 4, 5, 5, 6, 7}
	tr := FitIndices(x, y, idx, Defaults(), nil)
	if tr.Predict([]float64{0.1}) != 0 || tr.Predict([]float64{0.9}) != 1 {
		t.Fatal("bootstrap tree wrong on trivially separable data")
	}
}

func TestFitIndicesDoesNotMutateInput(t *testing.T) {
	x, y := stepData()
	idx := []int{3, 1, 2, 0, 7, 5, 6, 4}
	orig := append([]int(nil), idx...)
	FitIndices(x, y, idx, Defaults(), nil)
	for i := range idx {
		if idx[i] != orig[i] {
			t.Fatal("FitIndices mutated caller's index slice")
		}
	}
}

func TestFeatureSubsamplingNeedsRNG(t *testing.T) {
	x, y := stepData()
	p := Defaults()
	p.MaxFeatures = 1
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Fit(x, y, p, nil)
}

func TestFeatureSubsampling(t *testing.T) {
	// y depends only on feature 1; with MaxFeatures=1 and enough depth the
	// tree must still find it in expectation (some nodes sample feature 1).
	r := rng.New(5)
	n := 300
	x := mat.NewDense(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = 10 * x.At(i, 1)
	}
	p := Defaults()
	p.MaxFeatures = 1
	tr := Fit(x, y, p, r)
	pred := predictRows(tr, x)
	if stats.R2(y, pred) < 0.9 {
		t.Fatalf("R2 = %v with feature subsampling", stats.R2(y, pred))
	}
}

func TestGainImprovesFit(t *testing.T) {
	// 2D checkerboard-ish function: deeper trees must fit better.
	r := rng.New(7)
	n := 400
	x := mat.NewDense(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Float64())
		x.Set(i, 1, r.Float64())
		y[i] = math.Sin(6*x.At(i, 0)) * math.Cos(6*x.At(i, 1))
	}
	var prev float64 = math.Inf(1)
	for _, depth := range []int{1, 3, 6, 12} {
		p := Defaults()
		p.MaxDepth = depth
		tr := Fit(x, y, p, nil)
		rmse := stats.RMSE(y, predictRows(tr, x))
		if rmse > prev+1e-12 {
			t.Fatalf("training RMSE rose from %v to %v at depth %d", prev, rmse, depth)
		}
		prev = rmse
	}
}

func TestMinImpurityDecrease(t *testing.T) {
	x, y := stepData()
	p := Defaults()
	p.MinImpurityDecrease = 1e9 // nothing can clear this bar
	tr := Fit(x, y, p, nil)
	if len(tr.Nodes) != 1 {
		t.Fatal("split accepted despite impurity threshold")
	}
}

func TestPredictDimensionPanics(t *testing.T) {
	x, y := stepData()
	tr := Fit(x, y, Defaults(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.Predict([]float64{1, 2})
}

func TestFitShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Fit(mat.NewDense(3, 1), []float64{1, 2}, Defaults(), nil)
}

func TestFitEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Fit(mat.NewDense(0, 1), nil, Defaults(), nil)
}

func TestPredictionIsPiecewiseConstantProperty(t *testing.T) {
	// property: prediction of any point equals prediction of the leaf mean
	// of training points routed to the same leaf.
	x, y := stepData()
	tr := Fit(x, y, Defaults(), nil)
	f := func(raw uint16) bool {
		v := float64(raw) / 65535.0
		p := tr.Predict([]float64{v})
		return p == 0 || p == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdBetweenAdjacentValues(t *testing.T) {
	// Split thresholds must route training points to their own side even
	// when adjacent feature values are extremely close.
	x := mat.FromRows([][]float64{{1.0}, {math.Nextafter(1.0, 2.0)}})
	y := []float64{0, 1}
	tr := Fit(x, y, Defaults(), nil)
	if tr.Predict(x.Row(0)) != 0 || tr.Predict(x.Row(1)) != 1 {
		t.Fatal("adjacent float values not separated correctly")
	}
}

func BenchmarkFit1000x8(b *testing.B) {
	r := rng.New(1)
	n := 1000
	x := mat.NewDense(n, 8)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = x.At(i, 0) * math.Sin(x.At(i, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(x, y, Defaults(), nil)
	}
}

func BenchmarkPredict(b *testing.B) {
	r := rng.New(1)
	n := 1000
	x := mat.NewDense(n, 8)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = x.At(i, 0)
	}
	tr := Fit(x, y, Defaults(), nil)
	v := x.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Predict(v)
	}
}

func TestPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	r := rng.New(5)
	n := 300
	x := mat.NewDense(n, 5)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 5; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = r.Norm()
	}
	tr := Fit(x, y, Defaults(), nil)
	v := x.Row(7)
	if a := testing.AllocsPerRun(50, func() { tr.Predict(v) }); a != 0 {
		t.Fatalf("Tree.Predict allocates %v times per call, want 0", a)
	}
}

// TestFitterAllocsAmortized checks the workspace arena does its job: after
// warmup, repeated same-shape fits allocate only the tree being built.
func TestFitterAllocsAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	r := rng.New(6)
	n := 200
	x := mat.NewDense(n, 4)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = r.Norm()
	}
	idx := r.Bootstrap(nil, n)
	ft := NewFitter()
	ft.FitIndices(x, y, idx, Defaults(), rng.New(1))
	a := testing.AllocsPerRun(10, func() { ft.FitIndices(x, y, idx, Defaults(), rng.New(1)) })
	// The tree itself (node slice growth + header) is all that remains.
	if a > 12 {
		t.Fatalf("warm Fitter allocates %v times per fit, want the tree only (<= 12)", a)
	}
}

func BenchmarkTreeFit(b *testing.B) {
	r := rng.New(1)
	n := 1000
	x := mat.NewDense(n, 8)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = x.At(i, 0) * math.Sin(x.At(i, 1))
	}
	idx := r.Bootstrap(nil, n)
	ft := NewFitter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.FitIndices(x, y, idx, Defaults(), rng.New(uint64(i)))
	}
}
