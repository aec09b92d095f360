// Scaling study: predicted vs measured strong-scaling for LULESH-like
// configurations, contrasting the two-level model with the classic
// per-configuration curve-fitting approach (Extra-P style).
//
// The study mimics what a performance engineer does before requesting a
// large allocation: take the application's small-scale measurements,
// extrapolate the speedup curve, and decide where scaling stops paying.
//
// Run with: go run ./examples/scalingstudy
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hpcsim"
	"repro/internal/rng"
	"repro/internal/scalefit"
)

func main() {
	app := hpcsim.NewLulesh()
	engine := hpcsim.NewEngine(nil, 17)
	r := rng.New(5)

	cfg := core.DefaultConfig()
	configs := app.Space().SampleLatinHypercube(r, 400)
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
	model, err := core.Fit(rng.New(1), history, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Study three fresh configurations: small, medium, large meshes.
	studies := [][]float64{
		{64, 400, 8},  // small mesh: communication-bound early
		{120, 400, 8}, // medium
		{184, 400, 8}, // large mesh: compute keeps scaling
	}
	scales := append(append([]int{}, cfg.SmallScales...), cfg.LargeScales...)

	for _, sc := range studies {
		ev := model.Evaluate(sc, 0)
		fmt.Printf("LULESH s=%.0f steps=%.0f regions=%.0f (cluster %d)\n",
			sc[0], sc[1], sc[2], ev.Cluster)

		// measured small-scale curve for the curve-fit baseline
		var smallCurve []float64
		for _, p := range cfg.SmallScales {
			v, err := engine.Run(app, sc, p, 0)
			if err != nil {
				log.Fatal(err)
			}
			smallCurve = append(smallCurve, v)
		}
		cf, err := scalefit.Fit(cfg.SmallScales, smallCurve, nil)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("  %8s  %10s  %12s  %12s  %9s\n", "procs", "actual", "two-level", "curve-fit", "speedup")
		base, _ := engine.Run(app, sc, scales[0], 0)
		for i, p := range scales {
			truth, err := engine.Run(app, sc, p, 0)
			if err != nil {
				log.Fatal(err)
			}
			var tl string
			if i < len(cfg.SmallScales) {
				tl = fmt.Sprintf("%10.3fs*", ev.Small[i])
			} else {
				tl = fmt.Sprintf("%10.3fs ", ev.Runtimes[i-len(cfg.SmallScales)])
			}
			fmt.Printf("  %8d  %9.3fs  %s  %10.3fs  %8.1fx\n",
				p, truth, tl, cf.Predict(float64(p)), base/truth)
		}
		fmt.Printf("  curve-fit model: %v   (* = interpolation level)\n\n", cf)
	}
	fmt.Println("the two-level model tracks the measured tail where single-term")
	fmt.Println("curve fitting over- or under-shoots once communication bends the curve")
}
