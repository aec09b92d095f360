package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestConcurrentPredictors asserts the invariant the serving layer
// (internal/serving) depends on: every prediction method of a fitted
// TwoLevelModel is a pure read, safe for unlimited parallel callers on
// one shared model. Run under -race this catches any scratch state that
// leaks into the model; the equality checks catch nondeterminism.
func TestConcurrentPredictors(t *testing.T) {
	cfg := smallCfg()
	cfg.Forest.Trees = 20
	train, test := simTables(t, 21, 40, 20, 4, cfg)
	m, err := Fit(rng.New(5), train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var params [][]float64
	for _, c := range test.GroupByConfig() {
		params = append(params, c.Params)
	}
	if len(params) == 0 {
		t.Fatal("no test configurations")
	}

	type baseline struct {
		pred    []float64
		small   []float64
		at      float64
		ivs     []Interval
		cluster int
	}
	base := make([]baseline, len(params))
	atScale := cfg.LargeScales[0]
	for i, p := range params {
		ev := m.Evaluate(p, 0)
		at, err := m.PredictAt(&ev, atScale)
		if err != nil {
			t.Fatal(err)
		}
		base[i] = baseline{
			pred:    m.Predict(p),
			small:   m.PredictSmall(p),
			at:      at,
			ivs:     m.PredictIntervalCov(p, 0.8),
			cluster: m.AssignCluster(p),
		}
	}

	const goroutines, iters = 8, 25
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(params)
				p := params[i]
				if got := m.Predict(p); !reflect.DeepEqual(got, base[i].pred) {
					t.Errorf("goroutine %d: Predict diverged: %v != %v", g, got, base[i].pred)
					return
				}
				if got := m.PredictSmall(p); !reflect.DeepEqual(got, base[i].small) {
					t.Errorf("goroutine %d: PredictSmall diverged", g)
					return
				}
				ev := m.Evaluate(p, 0)
				got, err := m.PredictAt(&ev, atScale)
				if err != nil {
					errCh <- err
					return
				}
				if got != base[i].at {
					t.Errorf("goroutine %d: PredictAt diverged: %v != %v", g, got, base[i].at)
					return
				}
				if got := m.PredictIntervalCov(p, 0.8); !reflect.DeepEqual(got, base[i].ivs) {
					t.Errorf("goroutine %d: PredictIntervalCov diverged", g)
					return
				}
				if got := m.AssignCluster(p); got != base[i].cluster {
					t.Errorf("goroutine %d: AssignCluster diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentPredictorsBasis repeats the race check on the basis
// backend, whose prediction path refits the curve per call.
func TestConcurrentPredictorsBasis(t *testing.T) {
	cfg := smallCfg()
	cfg.Forest.Trees = 15
	cfg.Mode = ModeBasis
	train, test := simTables(t, 22, 36, 0, 3, cfg)
	m, err := Fit(rng.New(6), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var params [][]float64
	for _, c := range test.GroupByConfig() {
		params = append(params, c.Params)
	}
	base := make([][]float64, len(params))
	for i, p := range params {
		base[i] = m.Predict(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 15; it++ {
				i := (g + it) % len(params)
				if got := m.Predict(params[i]); !reflect.DeepEqual(got, base[i]) {
					t.Errorf("goroutine %d: basis Predict diverged", g)
					return
				}
				ev := m.Evaluate(params[i], 0)
				if _, err := m.PredictAt(&ev, 2048); err != nil {
					t.Errorf("goroutine %d: PredictAt(2048): %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
