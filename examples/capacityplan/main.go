// Capacity planning: pick the smallest process count that meets a
// deadline, without ever running the job at scale.
//
// A user must deliver an SMG2000 solve (320³ grid, 24 V-cycles) within a
// wall-clock budget. Allocating more processes costs more core-hours, so
// we want the cheapest allocation that still makes the deadline. The
// two-level model — trained in basis mode purely on small-scale history —
// predicts the runtime at every candidate scale; we then verify the
// choice against the simulator's ground truth.
//
// Run with: go run ./examples/capacityplan
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hpcsim"
	"repro/internal/rng"
)

func main() {
	const deadline = 0.75 // seconds of wall clock
	target := []float64{320, 320, 320, 24}

	app := hpcsim.NewSMG()
	engine := hpcsim.NewEngine(nil, 99)
	r := rng.New(3)

	// Small-scale history only: basis mode needs no large-scale run.
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeBasis
	configs := app.Space().SampleLatinHypercube(r, 400)
	history, err := engine.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: configs, Scales: cfg.SmallScales, Reps: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.Fit(rng.New(1), history, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("deadline: %.2fs for SMG2000 config %v\n\n", deadline, target)
	fmt.Printf("%8s  %12s  %12s  %10s\n", "procs", "predicted", "actual", "core-hours")
	candidates := []int{64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048}
	chosen := -1
	ev := model.Evaluate(target, 0)
	for _, p := range candidates {
		pred, err := model.PredictAt(&ev, p)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := engine.Run(app, target, p, 0)
		if err != nil {
			log.Fatal(err)
		}
		mark := ""
		if pred <= deadline && chosen < 0 {
			chosen = p
			mark = "  <- cheapest predicted to meet deadline"
		}
		fmt.Printf("%8d  %10.3fs  %10.3fs  %10.2f%s\n",
			p, pred, truth, truth*float64(p)/3600, mark)
	}
	if chosen < 0 {
		fmt.Println("\nno candidate allocation meets the deadline")
		return
	}
	actual, _ := engine.Run(app, target, chosen, 0)
	verdict := "met"
	if actual > deadline {
		verdict = "MISSED"
	}
	fmt.Printf("\nallocated %d processes: actual runtime %.3fs — deadline %s\n", chosen, actual, verdict)
}
