package linmod

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/rng"
)

// TestSoftThresholdProperties: |S(z,g)| <= |z|, sign preserved, shrink by
// exactly g outside the dead zone.
func TestSoftThresholdProperties(t *testing.T) {
	f := func(zRaw, gRaw int16) bool {
		z := float64(zRaw) / 100
		g := math.Abs(float64(gRaw)) / 100
		s := softThreshold(z, g)
		if math.Abs(s) > math.Abs(z)+1e-12 {
			return false
		}
		if s != 0 && math.Signbit(s) != math.Signbit(z) {
			return false
		}
		if math.Abs(z) > g && math.Abs(math.Abs(z)-math.Abs(s)-g) > 1e-12 {
			return false
		}
		if math.Abs(z) <= g && s != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLassoMonotoneSparsityProperty: increasing lambda never increases the
// training fit quality and never grows the support past MultiTaskLambdaMax.
func TestLassoMonotoneSparsityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rng.New(uint64(seed) + 3)
		n, p := 40, 6
		x := mat.NewDense(n, p)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				x.Set(i, j, r.Norm())
			}
			y[i] = 2*x.At(i, 0) - x.At(i, 2) + 0.1*r.Norm()
		}
		lmax := MultiTaskLambdaMax(x, column(y))
		prevSSE := -1.0
		for _, frac := range []float64{0.01, 0.1, 0.5, 1.01} {
			m := lasso(x, y, lmax*frac, Options{})
			var sse float64
			for i := 0; i < n; i++ {
				d := m.PredictTask(x.Row(i), 0) - y[i]
				sse += d * d
			}
			if sse < prevSSE-1e-9 { // SSE must not decrease as lambda grows
				return false
			}
			prevSSE = sse
		}
		// above lambda max: empty support
		m := lasso(x, y, lmax*1.01, Options{})
		for _, c := range m.Coef.Data {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRidgePredictionShrinksTowardMeanProperty: as lambda → ∞ the ridge
// prediction at any point approaches the target mean.
func TestRidgePredictionShrinksTowardMeanProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rng.New(uint64(seed) + 11)
		n, p := 30, 4
		x := mat.NewDense(n, p)
		y := make([]float64, n)
		var mean float64
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				x.Set(i, j, r.Norm())
			}
			y[i] = r.Uniform(0, 10)
			mean += y[i]
		}
		mean /= float64(n)
		m := Ridge(x, column(y), 1e9)
		probe := make([]float64, p)
		for j := range probe {
			probe[j] = r.Norm()
		}
		return math.Abs(m.PredictTask(probe, 0)-mean) < 0.05*math.Abs(mean)+0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiTaskSupportShrinksWithLambdaProperty: support size is
// non-increasing in lambda.
func TestMultiTaskSupportShrinksWithLambdaProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rng.New(uint64(seed) + 29)
		n, p, tasks := 30, 5, 3
		x := mat.NewDense(n, p)
		y := mat.NewDense(n, tasks)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				x.Set(i, j, r.Norm())
			}
			for tt := 0; tt < tasks; tt++ {
				y.Set(i, tt, float64(tt+1)*x.At(i, 0)-x.At(i, 3)+0.1*r.Norm())
			}
		}
		lmax := MultiTaskLambdaMax(x, y)
		prev := p + 1
		for _, frac := range []float64{0.01, 0.2, 0.6, 1.01} {
			m := MultiTaskLasso(x, y, lmax*frac, Options{})
			cur := len(m.ActiveFeatures())
			if cur > prev {
				return false
			}
			prev = cur
		}
		return prev == 0 // above lambda max everything is zero
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
