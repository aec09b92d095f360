package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// TestCacheHitAllocBudget is the allocation-regression gate for the
// serving fast path: a warm cache hit through the full handler stack
// (decode → key build → LRU lookup → encode) must stay under 20
// allocations per request.
func TestCacheHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	s, _, _, params := newTestServer(t, Options{CacheSize: 1024})
	body, err := json.Marshal(PredictRequest{Params: params[0]})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest("POST", "/v1/predict", io.NopCloser(rd))
	w := httptest.NewRecorder()
	serve := func() {
		rd.Reset(body)
		w.Body.Reset()
		w.Code = http.StatusOK
		s.Handler().ServeHTTP(w, req)
	}
	serve() // warm: this one is the miss that populates the cache
	if w.Code != http.StatusOK {
		t.Fatalf("warmup status %d: %s", w.Code, w.Body.String())
	}
	allocs := testing.AllocsPerRun(50, serve)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if allocs >= 20 {
		t.Fatalf("cache-hit request allocates %v times, budget is < 20", allocs)
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || !resp.Results[0].Cached {
		t.Fatalf("expected one cached result, got %+v", resp.Results)
	}
}

// TestTracingAllocOverhead holds the observability cost contract as a
// count: request tracing may add at most two allocations to a warm
// cache hit over the same hit with tracing disabled — the minted request
// ID and its response header value; spans go to pooled per-request
// state and reused ring slots. An allocation count does
// not move with machine load, unlike a wall-clock ratio of two sub-10µs
// timings; BenchmarkObsServePredict remains for timing the pair by hand.
func TestTracingAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	m, params := testModel(t)
	body, err := json.Marshal(PredictRequest{Params: params[0]})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(opts Options) float64 {
		reg := NewRegistry()
		reg.Install("default", m)
		d := newServeOnce(New(reg, opts))
		// Warm past the miss that populates the cache and past one lap of
		// the trace ring, whose slots keep their span arrays once filled.
		for i := 0; i <= obs.DefaultTraceCapacity; i++ {
			d.do(t, body)
		}
		return testing.AllocsPerRun(50, func() { d.do(t, body) })
	}
	untraced := allocs(Options{CacheSize: 1024, DisableTracing: true})
	traced := allocs(Options{CacheSize: 1024})
	t.Logf("cache-hit allocs: untraced %v, traced %v", untraced, traced)
	if traced-untraced > 2 {
		t.Fatalf("tracing adds %v allocations per cache hit (traced %v, untraced %v), budget is 2",
			traced-untraced, traced, untraced)
	}
}

// TestParallelBatchMatchesSerial pins the deterministic-output contract
// of the bounded-worker batch path: any worker count must produce the
// byte-identical response of a serial run, including which entries
// report Cached.
func TestParallelBatchMatchesSerial(t *testing.T) {
	m, params := testModel(t)
	mkBody := func() []byte {
		cfgs := make([][]float64, 2*minParallelBatch)
		for i := range cfgs {
			q := append([]float64(nil), params[i%len(params)]...)
			q[0] += float64(i) * 1e-3
			cfgs[i] = q
		}
		body, err := json.Marshal(PredictRequest{Configs: cfgs})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	body := mkBody()
	responses := make(map[string]int)
	for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0) + 2} {
		reg := NewRegistry()
		reg.Install("default", m)
		s := New(reg, Options{CacheSize: 4096, BatchWorkers: workers})
		// Two passes: all-miss then all-hit, both must be order-stable.
		for pass := 0; pass < 2; pass++ {
			w := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
			s.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("workers=%d pass=%d status %d: %s", workers, pass, w.Code, w.Body.String())
			}
			responses[string(w.Body.Bytes())+":"+string(rune('0'+pass))]++
		}
	}
	if len(responses) != 2 { // one distinct body per pass, shared by all worker counts
		t.Fatalf("batch responses differ across worker counts: %d distinct bodies, want 2", len(responses))
	}
}

// TestParallelBatchErrorPropagates checks that a compute error inside a
// parallel batch surfaces as a 400, exactly as on the serial path.
func TestParallelBatchErrorPropagates(t *testing.T) {
	m, params := testModel(t)
	if m.Mode() != "anchored" {
		t.Skip("error injection needs an anchored-mode fixture")
	}
	reg := NewRegistry()
	reg.Install("default", m)
	s := New(reg, Options{CacheSize: 4096, BatchWorkers: 4})
	cfgs := make([][]float64, 2*minParallelBatch)
	for i := range cfgs {
		q := append([]float64(nil), params[i%len(params)]...)
		q[0] += float64(i) * 1e-3
		cfgs[i] = q
	}
	// At-scale prediction fails in anchored mode for non-target scales.
	body, err := json.Marshal(PredictRequest{Configs: cfgs, At: 999})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}
