package repro_test

import (
	"testing"

	repro "repro"
	"repro/internal/hpcsim"
)

// TestPublicAPIWorkflow exercises the facade end to end: simulate history,
// save/load it, fit, predict, persist the model.
func TestPublicAPIWorkflow(t *testing.T) {
	app, ok := repro.Apps()["smg2000"]
	if !ok {
		t.Fatal("smg2000 missing from app registry")
	}
	eng := repro.NewEngine(nil, 5)
	r := repro.NewRand(6)

	cfg := repro.DefaultConfig()
	cfg.Forest.Trees = 30
	cfgs := app.Space().SampleLatinHypercube(r, 80)
	hist, err := eng.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: cfgs, Scales: cfg.SmallScales, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	anchors, err := eng.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: cfgs[:20], Scales: cfg.LargeScales, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist.Merge(anchors)

	// history CSV round trip through the facade loader
	dir := t.TempDir()
	histPath := dir + "/hist.csv"
	if err := hist.SaveCSV(histPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := repro.LoadHistory(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != hist.Len() {
		t.Fatalf("history round trip lost runs: %d vs %d", loaded.Len(), hist.Len())
	}

	m, err := repro.Fit(repro.NewRand(1), loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode() != repro.ModeAnchored {
		t.Fatalf("mode = %q", m.Mode())
	}
	probe := cfgs[len(cfgs)-1]
	pred := m.Predict(probe)
	if len(pred) != len(cfg.LargeScales) {
		t.Fatalf("predict returned %d values", len(pred))
	}
	for _, v := range pred {
		if v <= 0 {
			t.Fatalf("non-positive prediction %v", v)
		}
	}

	modelPath := dir + "/model.json"
	if err := m.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	m2, err := repro.LoadModel(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	pred2 := m2.Predict(probe)
	for i := range pred {
		if pred[i] != pred2[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
}

// TestBasisModeViaFacade checks the no-large-scale-history path.
func TestBasisModeViaFacade(t *testing.T) {
	app := repro.Apps()["lulesh"]
	eng := repro.NewEngine(nil, 9)
	r := repro.NewRand(10)
	cfg := repro.DefaultConfig()
	cfg.Mode = repro.ModeBasis
	cfg.Forest.Trees = 30
	cfgs := app.Space().SampleLatinHypercube(r, 60)
	hist, err := eng.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: cfgs, Scales: cfg.SmallScales, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := repro.Fit(repro.NewRand(2), hist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode() != repro.ModeBasis {
		t.Fatalf("mode = %q", m.Mode())
	}
	ev := m.Evaluate(cfgs[0], 0)
	if v, err := m.PredictAt(&ev, 300); err != nil || v <= 0 {
		t.Fatalf("PredictAt = %v, %v", v, err)
	}
}
