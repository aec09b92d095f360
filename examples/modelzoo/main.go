// Model zoo: every regressor in the library on one dataset, in both the
// regime ML is good at (interpolation) and the one that breaks it
// (scale extrapolation) — a guided tour of why the two-level design
// exists.
//
// Run with: go run ./examples/modelzoo
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/gbrt"
	"repro/internal/hpcsim"
	"repro/internal/knn"
	"repro/internal/linmod"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/stats"
)

// regressor is the minimal interface every model in the zoo satisfies.
type regressor interface {
	Predict(v []float64) float64
}

func main() {
	app := hpcsim.NewKripke()
	engine := hpcsim.NewEngine(nil, 23)
	r := rng.New(11)

	small := []int{2, 4, 8, 16, 32, 64}
	configs := app.Space().SampleLatinHypercube(r, 400)
	train, err := engine.GenerateHistory(app, hpcsim.HistorySpec{Configs: configs, Scales: small, Reps: 1})
	if err != nil {
		log.Fatal(err)
	}

	testCfgs := app.Space().SampleLatinHypercube(r, 80)
	interpTest, err := engine.GenerateHistory(app, hpcsim.HistorySpec{Configs: testCfgs, Scales: small, Reps: 1})
	if err != nil {
		log.Fatal(err)
	}
	extrapTest, err := engine.GenerateHistory(app, hpcsim.HistorySpec{Configs: testCfgs, Scales: []int{512}, Reps: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Train every model on log-runtime over (params, scale) features.
	x, y := train.XYWithScale()
	ly := logs(y)

	models := map[string]regressor{}
	models["random-forest"] = forest.Fit(x, ly, forest.Defaults(), rng.New(1))
	models["gbrt"] = gbrt.Fit(x, ly, gbrt.Defaults(), rng.New(2))
	models["knn-5"] = knn.New(x, ly, 5, true)
	lx := logCols(x)
	lyCol := &mat.Dense{Rows: len(ly), Cols: 1, Data: ly}
	lassoModel, lam := linmod.CVMultiTaskLasso(rng.New(3), lx, lyCol, 5, 12, linmod.Options{})
	models["lasso-loglog"] = logFeatures{lassoModel}
	ridge := linmod.Ridge(lx, lyCol, 0.01)
	models["ridge-loglog"] = logFeatures{ridge}

	fmt.Printf("kripke, %d training configs at scales %v (lasso lambda %.4g)\n\n", len(configs), small, lam)
	fmt.Printf("%-14s  %22s  %22s\n", "model", "interpolation MAPE", "extrapolation MAPE @512")
	for _, name := range []string{"random-forest", "gbrt", "knn-5", "lasso-loglog", "ridge-loglog"} {
		m := models[name]
		fmt.Printf("%-14s  %21.1f%%  %21.1f%%\n",
			name, 100*evalOn(m, interpTest), 100*evalOn(m, extrapTest))
	}
	fmt.Println("\nbounded models (trees, neighbours) collapse out of range; only the")
	fmt.Println("log-log linear family extrapolates — which is exactly the structure")
	fmt.Println("the two-level model's extrapolation level builds on")
}

// logFeatures adapts a one-task linear model fitted on log-features.
type logFeatures struct{ m *linmod.MultiTaskModel }

func (l logFeatures) Predict(v []float64) float64 {
	lv := make([]float64, len(v))
	for i, x := range v {
		if x <= 0 {
			x = 1e-12
		}
		lv[i] = math.Log(x)
	}
	return l.m.PredictTask(lv, 0)
}

func evalOn(m regressor, test *dataset.Table) float64 {
	x, y := test.XYWithScale()
	pred := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		pred[i] = math.Exp(m.Predict(x.Row(i)))
	}
	return stats.MAPE(y, pred)
}

func logs(y []float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		if v <= 0 {
			v = 1e-12
		}
		out[i] = math.Log(v)
	}
	return out
}

func logCols(x *mat.Dense) *mat.Dense {
	out := x.Clone()
	for i, v := range out.Data {
		if v <= 0 {
			v = 1e-12
		}
		out.Data[i] = math.Log(v)
	}
	return out
}
