package serving

import (
	"sync"
	"testing"
)

// TestCompiledPredictDuringHotSwap hammers the compiled prediction
// surfaces (point, small-curve, conformal interval) from many goroutines
// while the registry hot-swaps the entry underneath them. Run under
// -race (make verify does) it proves the registry's snapshot
// publication never races with in-flight compiled predicts, and that
// predictions stay bit-stable across swaps.
func TestCompiledPredictDuringHotSwap(t *testing.T) {
	m, params := testModel(t)
	reg := NewRegistry()
	reg.Install("default", m)
	e, ok := reg.Get("default")
	if !ok {
		t.Fatal("installed model not found")
	}

	want := make([][]float64, len(params))
	for i, p := range params {
		want[i] = e.Model.Predict(p)
	}

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pi := w % len(params)
			p := params[pi]
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, ok := reg.Get("default")
				if !ok {
					t.Error("model vanished mid-swap")
					return
				}
				for i, v := range e.Model.Predict(p) {
					if v != want[pi][i] {
						t.Errorf("prediction drifted during hot-swap: scale %d got %v want %v", i, v, want[pi][i])
						return
					}
				}
				e.Model.PredictSmall(p)
				e.Model.PredictIntervalCov(p, 0.9)
			}
		}(w)
	}

	// Each Install publishes a fresh Entry sharing the same model.
	for i := 0; i < 25; i++ {
		reg.Install("default", m)
	}
	close(stop)
	wg.Wait()

	e, ok = reg.Get("default")
	if !ok || e.Version != 26 {
		t.Fatalf("expected version 26 after 26 installs, got %+v", e)
	}
}
