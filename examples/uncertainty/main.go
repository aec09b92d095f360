// Uncertainty: conformal vs. ensemble prediction intervals.
//
// Point predictions are not enough when a mis-estimate means a blown
// allocation budget. The model carries two interval mechanisms: a
// split-conformal calibration (residual quantiles from held-out
// configurations, finite-sample coverage guarantee under
// exchangeability) and the interpolation forests' tree spread (a
// heuristic floor, available even without a calibration set). This
// example fits a model, calibrates on a held-out slice exactly as the
// pipeline does, and scores both mechanisms on fresh configurations:
// empirical coverage against the nominal level, and the price paid in
// relative band width. The table it prints backs the R-Uncert entry in
// EXPERIMENTS.md.
//
// Run with: go run ./examples/uncertainty
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hpcsim"
	"repro/internal/rng"
	"repro/internal/uncertainty"
)

func main() {
	app := hpcsim.NewCG() // the allreduce-bound extension app
	engine := hpcsim.NewEngine(nil, 31)
	r := rng.New(13)

	cfg := core.DefaultConfig()
	configs := app.Space().SampleLatinHypercube(r, 360)
	train, calib := configs[:300], configs[300:]

	history, err := engine.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: train, Scales: cfg.SmallScales, Reps: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	anchors, err := engine.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: train[:30], Scales: cfg.LargeScales, Reps: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	history.Merge(anchors)
	model, err := core.Fit(rng.New(1), history, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Split-conformal calibration: residuals of the fitted model on
	// configurations it never saw, exactly what pipeline promotion does
	// with its parameter-hash holdout.
	cal := uncertainty.NewCalibrator(cfg.LargeScales, model.Clusters())
	for _, c := range calib {
		ev := model.Evaluate(c, 0)
		for i, scale := range cfg.LargeScales {
			truth, err := engine.Run(app, c, scale, 0)
			if err != nil {
				log.Fatal(err)
			}
			cal.Add(ev.Cluster, i, ev.Runtimes[i], truth)
		}
	}
	model.Meta.Calibration = cal.Finish()
	if model.Meta.Calibration == nil {
		log.Fatal("calibration produced no samples")
	}

	fresh := app.Space().SampleLatinHypercube(r, 100)
	truths := make([][]float64, len(fresh))
	for i, c := range fresh {
		truths[i] = make([]float64, len(cfg.LargeScales))
		for j, scale := range cfg.LargeScales {
			truths[i][j], err = engine.Run(app, c, scale, 1)
			if err != nil {
				log.Fatal(err)
			}
		}
	}

	// The same model without its calibration serves the ensemble band
	// at every scale.
	uncalibrated := *model
	uncalibrated.Meta.Calibration = nil

	fmt.Printf("CG, %d calibration configs, %d fresh test configs\n", len(calib), len(fresh))
	fmt.Printf("empirical coverage (cov) and mean relative band width (w = (hi-lo)/mid)\n\n")
	fmt.Printf("%8s  %6s  %18s  %18s\n", "", "", "conformal", "ensemble")
	fmt.Printf("%8s  %6s  %8s  %8s  %8s  %8s\n", "nominal", "scale", "cov", "w", "cov", "w")
	for _, nominal := range []float64{0.8, 0.9} {
		confs := make([][]core.Interval, len(fresh))
		enss := make([][]core.Interval, len(fresh))
		for i, c := range fresh {
			confs[i] = model.PredictIntervalCov(c, nominal)
			enss[i] = uncalibrated.PredictIntervalCov(c, nominal)
		}
		for j, scale := range cfg.LargeScales {
			var confIn, ensIn int
			var confW, ensW float64
			for i := range fresh {
				conf, ens := confs[i][j], enss[i][j]
				if conf.Source != core.IntervalConformal {
					log.Fatalf("p=%d served %s, not conformal", scale, conf.Source)
				}
				if t := truths[i][j]; t >= conf.Lo && t <= conf.Hi {
					confIn++
				}
				if t := truths[i][j]; t >= ens.Lo && t <= ens.Hi {
					ensIn++
				}
				confW += (conf.Hi - conf.Lo) / conf.Mid
				ensW += (ens.Hi - ens.Lo) / ens.Mid
			}
			n := float64(len(fresh))
			fmt.Printf("%8.2f  %6d  %8.2f  %8.2f  %8.2f  %8.2f\n",
				nominal, scale, float64(confIn)/n, confW/n, float64(ensIn)/n, ensW/n)
		}
	}
	fmt.Println("\nthe conformal bands track their nominal level (up to finite-sample")
	fmt.Println("wobble) at roughly half the width, because they are calibrated on")
	fmt.Println("true large-scale residuals; the tree-spread bands are uncalibrated,")
	fmt.Println("so their empirical coverage is whatever the ensemble variance makes")
	fmt.Println("it — here 2x-wide bands that over-cover near the anchors and decay")
	fmt.Println("with scale — and should be read as a shape heuristic, not a level")
}
