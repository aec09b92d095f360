// Quickstart: the full two-level workflow in one file.
//
//  1. Generate execution history on the simulated cluster: many
//     configurations at small scales, a few historical large-scale runs.
//  2. Fit the two-level model.
//  3. Predict the large-scale runtime of configurations never executed.
//  4. Compare against the simulator's ground truth.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hpcsim"
	"repro/internal/rng"
	"repro/internal/stats"
)

func main() {
	app := hpcsim.NewSMG()
	engine := hpcsim.NewEngine(nil, 42) // nil = the default simulated cluster
	r := rng.New(7)

	// 1. History: 300 configurations at 2..64 processes, the first 30 also
	// ran at the large scales at some point in the past.
	cfg := core.DefaultConfig()
	configs := app.Space().SampleLatinHypercube(r, 300)
	history, err := engine.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: configs, Scales: cfg.SmallScales, Reps: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	anchors, err := engine.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: configs[:30], Scales: cfg.LargeScales, Reps: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	history.Merge(anchors)

	// 2. Fit.
	model, err := core.Fit(rng.New(1), history, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted %s-mode model: %d configurations, %d anchors, %d scaling clusters\n\n",
		model.Mode(), model.TrainConfigs, model.Anchors, model.Clusters())

	// 3 + 4. Predict 20 fresh configurations at every large scale and
	// score against ground truth.
	fresh := app.Space().SampleLatinHypercube(r, 20)
	preds := make([][]float64, len(fresh))
	for i, c := range fresh {
		preds[i] = model.Predict(c)
	}
	for _, scaleIdx := range []int{0, len(cfg.LargeScales) - 1} {
		scale := cfg.LargeScales[scaleIdx]
		var yTrue, yPred []float64
		for i, c := range fresh {
			truth, err := engine.Run(app, c, scale, 0)
			if err != nil {
				log.Fatal(err)
			}
			yTrue = append(yTrue, truth)
			yPred = append(yPred, preds[i][scaleIdx])
		}
		fmt.Printf("scale p=%d: MAPE %.1f%% over %d unseen configurations\n",
			scale, 100*stats.MAPE(yTrue, yPred), len(fresh))
	}

	// Bonus: inspect one prediction end to end.
	probe := fresh[0]
	fmt.Printf("\nconfiguration %v (nx, ny, nz, iters):\n", probe)
	ev := model.Evaluate(probe, 0)
	for i, s := range cfg.SmallScales {
		fmt.Printf("  p=%-5d predicted %8.3fs (interpolation level)\n", s, ev.Small[i])
	}
	for i, s := range cfg.LargeScales {
		truth, _ := engine.Run(app, probe, s, 0)
		fmt.Printf("  p=%-5d predicted %8.3fs, actually ran in %8.3fs\n", s, ev.Runtimes[i], truth)
	}
}
