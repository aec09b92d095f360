package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(x), 5, 1e-12, "Mean")
	approx(t, Variance(x), 32.0/7, 1e-12, "Variance")
	approx(t, StdDev(x), math.Sqrt(32.0/7), 1e-12, "StdDev")
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("empty/singleton conventions broken")
	}
}

func TestMinMax(t *testing.T) {
	x := []float64{3, -1, 7, 0}
	if Min(x) != -1 || Max(x) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(x), Max(x))
	}
}

func TestMinEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Min(nil)
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	approx(t, Quantile(x, 0), 1, 0, "q0")
	approx(t, Quantile(x, 1), 4, 0, "q1")
	approx(t, Quantile(x, 0.5), 2.5, 1e-12, "median")
	approx(t, Quantile(x, 0.25), 1.75, 1e-12, "q25")
	approx(t, Quantile([]float64{5}, 0.7), 5, 0, "single")
}

func TestQuantileDoesNotMutate(t *testing.T) {
	x := []float64{3, 1, 2}
	Quantile(x, 0.5)
	if x[0] != 3 || x[1] != 1 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestMAPE(t *testing.T) {
	yt := []float64{100, 200}
	yp := []float64{110, 180}
	approx(t, MAPE(yt, yp), (0.1+0.1)/2, 1e-12, "MAPE")
}

func TestMAPESkipsZeros(t *testing.T) {
	yt := []float64{0, 100}
	yp := []float64{5, 150}
	approx(t, MAPE(yt, yp), 0.5, 1e-12, "MAPE with zero target")
	if got := MAPE([]float64{0}, []float64{1}); got != 0 {
		t.Fatalf("all-zero-target MAPE = %v", got)
	}
}

func TestMAERMSE(t *testing.T) {
	yt := []float64{1, 2, 3}
	yp := []float64{2, 2, 5}
	approx(t, meanAbsErr(yt, yp), 1, 1e-12, "MAE")
	approx(t, RMSE(yt, yp), math.Sqrt(5.0/3), 1e-12, "RMSE")
}

func TestRMSEGreaterEqualMAEProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rng.New(uint64(seed))
		n := 3 + r.Intn(20)
		yt := make([]float64, n)
		yp := make([]float64, n)
		for i := range yt {
			yt[i] = r.Uniform(1, 10)
			yp[i] = r.Uniform(1, 10)
		}
		return RMSE(yt, yp) >= meanAbsErr(yt, yp)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// meanAbsErr is the mean absolute error, the lower bound RMSE is
// checked against.
func meanAbsErr(yTrue, yPred []float64) float64 {
	var s float64
	for i := range yTrue {
		s += math.Abs(yTrue[i] - yPred[i])
	}
	return s / float64(len(yTrue))
}

func TestR2(t *testing.T) {
	yt := []float64{1, 2, 3, 4}
	approx(t, R2(yt, yt), 1, 1e-12, "perfect R2")
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	approx(t, R2(yt, mean), 0, 1e-12, "mean-predictor R2")
	if R2([]float64{2, 2}, []float64{1, 3}) != 0 {
		t.Fatal("constant-target R2 convention broken")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	approx(t, Pearson(x, y), 1, 1e-12, "perfect correlation")
	yneg := []float64{8, 6, 4, 2}
	approx(t, Pearson(x, yneg), -1, 1e-12, "perfect anticorrelation")
	if Pearson(x, []float64{5, 5, 5, 5}) != 0 {
		t.Fatal("constant-series Pearson convention broken")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// any strictly monotone transform has Spearman 1
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125}
	approx(t, Spearman(x, y), 1, 1e-12, "Spearman monotone")
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 2, 2, 3}
	y := []float64{1, 2, 2, 3}
	approx(t, Spearman(x, y), 1, 1e-12, "Spearman with ties")
}

func TestRanks(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v", r)
		}
	}
}

func TestBootstrapCICoversMean(t *testing.T) {
	r := rng.New(7)
	x := make([]float64, 200)
	for i := range x {
		x[i] = r.Normal(10, 2)
	}
	lo, hi := BootstrapCI(r, x, Mean, 500, 0.05)
	if lo > 10 || hi < 10 {
		t.Fatalf("95%% CI [%v, %v] misses true mean 10", lo, hi)
	}
	if hi-lo > 2 {
		t.Fatalf("CI suspiciously wide: [%v, %v]", lo, hi)
	}
}

func TestPairedBootstrapDetectsBetterModel(t *testing.T) {
	r := rng.New(11)
	n := 150
	yt := make([]float64, n)
	pa := make([]float64, n)
	pb := make([]float64, n)
	for i := range yt {
		yt[i] = r.Uniform(50, 150)
		pa[i] = yt[i] * (1 + r.Normal(0, 0.02)) // ~2% error
		pb[i] = yt[i] * (1 + r.Normal(0, 0.20)) // ~20% error
	}
	lo, hi := PairedBootstrapMAPEDiff(r, yt, pa, pb, 400, 0.05)
	if hi >= 0 {
		t.Fatalf("CI [%v, %v] should be entirely below 0 (A better)", lo, hi)
	}
}

func TestGeomMean(t *testing.T) {
	approx(t, GeomMean([]float64{1, 4}), 2, 1e-12, "GeomMean")
	defer func() {
		if recover() == nil {
			t.Fatal("GeomMean accepted non-positive value")
		}
	}()
	GeomMean([]float64{1, 0})
}

func TestMetricLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MAPE([]float64{1}, []float64{1, 2})
}
