// Package baselines implements the "existing ML methods" the paper
// compares against, all trained on the same execution history as the
// two-level model but treating scale as just another input feature — the
// direct approach whose i.i.d. assumption breaks at extrapolation time —
// plus the classic non-ML per-configuration scalability-curve-fitting
// baseline.
package baselines

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/gbrt"
	"repro/internal/knn"
	"repro/internal/linmod"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/scalefit"
)

// Predictor predicts the runtime of a configuration at a scale.
type Predictor interface {
	// Name identifies the method in tables and reports.
	Name() string
	// PredictAt estimates the runtime of params at the given scale.
	PredictAt(params []float64, scale int) float64
}

// Trainer builds a Predictor from an execution-history table.
type Trainer func(r *rng.Source, train *dataset.Table) (Predictor, error)

// withScale appends the scale to a parameter vector.
func withScale(params []float64, scale int) []float64 {
	return append(append(make([]float64, 0, len(params)+1), params...), float64(scale))
}

// logVec maps a positive vector (features or targets) to logs, clamping
// non-positive entries.
func logVec(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if x <= 0 {
			x = 1e-12
		}
		out[i] = math.Log(x)
	}
	return out
}

// ---- direct random forest ----

// DirectForest is a random forest over (params, scale) features trained on
// log-runtimes.
type DirectForest struct {
	f *forest.Forest
}

// TrainDirectForest fits the direct-forest baseline.
func TrainDirectForest(r *rng.Source, train *dataset.Table) (Predictor, error) {
	x, y := train.XYWithScale()
	if x.Rows == 0 {
		return nil, fmt.Errorf("baselines: empty training table")
	}
	p := forest.Defaults()
	return &DirectForest{f: forest.Fit(x, logVec(y), p, r)}, nil
}

// Name implements Predictor.
func (d *DirectForest) Name() string { return "direct-rf" }

// PredictAt implements Predictor.
func (d *DirectForest) PredictAt(params []float64, scale int) float64 {
	return math.Exp(d.f.Predict(withScale(params, scale)))
}

// ---- direct GBRT ----

// DirectGBRT is gradient-boosted trees over (params, scale) features
// trained on log-runtimes.
type DirectGBRT struct {
	m *gbrt.Model
}

// TrainDirectGBRT fits the direct-GBRT baseline.
func TrainDirectGBRT(r *rng.Source, train *dataset.Table) (Predictor, error) {
	x, y := train.XYWithScale()
	if x.Rows == 0 {
		return nil, fmt.Errorf("baselines: empty training table")
	}
	return &DirectGBRT{m: gbrt.Fit(x, logVec(y), gbrt.Defaults(), r)}, nil
}

// Name implements Predictor.
func (d *DirectGBRT) Name() string { return "direct-gbrt" }

// PredictAt implements Predictor.
func (d *DirectGBRT) PredictAt(params []float64, scale int) float64 {
	return math.Exp(d.m.Predict(withScale(params, scale)))
}

// ---- direct kNN ----

// DirectKNN is k-nearest-neighbours over (params, scale) features on
// log-runtimes, k = 5 distance-weighted.
type DirectKNN struct {
	m *knn.Regressor
}

// TrainDirectKNN fits the direct-kNN baseline.
func TrainDirectKNN(_ *rng.Source, train *dataset.Table) (Predictor, error) {
	x, y := train.XYWithScale()
	if x.Rows == 0 {
		return nil, fmt.Errorf("baselines: empty training table")
	}
	k := 5
	if k > x.Rows {
		k = x.Rows
	}
	return &DirectKNN{m: knn.New(x, logVec(y), k, true)}, nil
}

// Name implements Predictor.
func (d *DirectKNN) Name() string { return "direct-knn" }

// PredictAt implements Predictor.
func (d *DirectKNN) PredictAt(params []float64, scale int) float64 {
	return math.Exp(d.m.Predict(withScale(params, scale)))
}

// ---- direct lasso (log-log power-law regression) ----

// DirectLasso is a lasso over log-transformed (params, scale) features with
// log-runtime targets — i.e. a sparse multivariate power-law model, the
// strongest purely linear direct baseline.
type DirectLasso struct {
	m *linmod.MultiTaskModel // one task: the log-runtime
}

// TrainDirectLasso fits the direct-lasso baseline with CV-selected lambda.
func TrainDirectLasso(r *rng.Source, train *dataset.Table) (Predictor, error) {
	x, y := train.XYWithScale()
	if x.Rows < 10 {
		return nil, fmt.Errorf("baselines: direct lasso needs >= 10 rows, got %d", x.Rows)
	}
	lx := mat.NewDense(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		copy(lx.Row(i), logVec(x.Row(i)))
	}
	ly := &mat.Dense{Rows: len(y), Cols: 1, Data: logVec(y)}
	m, _ := linmod.CVMultiTaskLasso(r, lx, ly, 5, 12, linmod.Options{})
	return &DirectLasso{m: m}, nil
}

// Name implements Predictor.
func (d *DirectLasso) Name() string { return "direct-lasso" }

// PredictAt implements Predictor.
func (d *DirectLasso) PredictAt(params []float64, scale int) float64 {
	return math.Exp(d.m.PredictTask(logVec(withScale(params, scale)), 0))
}

// ---- per-configuration curve fitting ----

// CurveFit is the non-ML baseline: it ignores cross-configuration history
// entirely and fits an Extra-P-style scalability model to the measured
// small-scale curve of the configuration being predicted. Unlike the
// direct baselines it cannot predict a configuration that has never run;
// the harness supplies the measured curve.
type CurveFit struct {
	Scales []int
}

// Name identifies the method.
func (c *CurveFit) Name() string { return "curve-fit" }

// PredictFromCurve fits the measured small-scale curve and extrapolates to
// the target scale.
func (c *CurveFit) PredictFromCurve(curve []float64, target int) (float64, error) {
	m, err := scalefit.Fit(c.Scales, curve, nil)
	if err != nil {
		return 0, err
	}
	return m.Predict(float64(target)), nil
}

// All returns the direct-ML baseline trainers in presentation order.
func All() []struct {
	Name  string
	Train Trainer
} {
	return []struct {
		Name  string
		Train Trainer
	}{
		{"direct-rf", TrainDirectForest},
		{"direct-gbrt", TrainDirectGBRT},
		{"direct-knn", TrainDirectKNN},
		{"direct-lasso", TrainDirectLasso},
	}
}
