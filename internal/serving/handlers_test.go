package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// doJSON posts a body (or GETs when body is nil) and decodes the reply.
func doJSON(t *testing.T, h http.Handler, method, path string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code
}

func TestPredictSingleMatchesCore(t *testing.T) {
	s, _, m, params := newTestServer(t, DefaultOptions())
	p := params[0]
	var resp PredictResponse
	code := doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: p}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Model != "default" || resp.Version != 1 || len(resp.Results) != 1 {
		t.Fatalf("response envelope %+v", resp)
	}
	res := resp.Results[0]
	if !reflect.DeepEqual(res.Scales, m.Cfg.LargeScales) {
		t.Fatalf("scales %v, want %v", res.Scales, m.Cfg.LargeScales)
	}
	if want := m.Predict(p); !reflect.DeepEqual(res.Runtimes, want) {
		t.Fatalf("runtimes %v, want %v (served prediction must match direct core call)", res.Runtimes, want)
	}
	if res.Cluster != m.AssignCluster(p) {
		t.Fatalf("cluster %d, want %d", res.Cluster, m.AssignCluster(p))
	}
	if res.Cached {
		t.Fatal("first request reported cached")
	}
}

func TestPredictBatchOptionsAndCaching(t *testing.T) {
	s, _, m, params := newTestServer(t, DefaultOptions())
	req := PredictRequest{Configs: params[:3], At: m.Cfg.LargeScales[1], Small: true}
	var resp PredictResponse
	if code := doJSON(t, s.Handler(), "POST", "/v1/predict", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results", len(resp.Results))
	}
	for i, res := range resp.Results {
		p := params[i]
		want := m.Predict(p)[1] // req.At is the second target scale
		if len(res.Runtimes) != 1 || res.Runtimes[0] != want {
			t.Fatalf("result %d: runtimes %v, want [%v]", i, res.Runtimes, want)
		}
		if !reflect.DeepEqual(res.Small, m.PredictSmall(p)) {
			t.Fatalf("result %d: small curve mismatch", i)
		}
	}
	// Re-request: every result must now be served from the cache.
	if code := doJSON(t, s.Handler(), "POST", "/v1/predict", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i, res := range resp.Results {
		if !res.Cached {
			t.Fatalf("result %d not cached on identical re-request", i)
		}
	}
}

func TestPredictIntervals(t *testing.T) {
	s, _, m, params := newTestServer(t, DefaultOptions())
	p := params[1]
	// Legacy tail-quantile form (0.1) and coverage form (0.8) are one
	// request: both normalize to coverage 0.8 and answer identically.
	for _, interval := range []float64{0.1, 0.8} {
		var resp PredictResponse
		code := doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: p, Interval: interval}, &resp)
		if code != http.StatusOK {
			t.Fatalf("interval=%v: status %d", interval, code)
		}
		cov, err := core.NormalizeCoverage(interval)
		if err != nil {
			t.Fatal(err)
		}
		want := m.PredictIntervalCov(p, cov)
		if !reflect.DeepEqual(resp.Results[0].Intervals, want) {
			t.Fatalf("interval=%v: intervals %+v, want %+v", interval, resp.Results[0].Intervals, want)
		}
		for _, iv := range resp.Results[0].Intervals {
			if iv.Source != core.IntervalEnsemble {
				t.Fatalf("uncalibrated fixture served source %q", iv.Source)
			}
		}
	}
}

// TestPredictWithoutIntervalOmitsIntervals pins the backward-compat
// contract: a request without the interval field gets the pre-interval
// point-only response shape.
func TestPredictWithoutIntervalOmitsIntervals(t *testing.T) {
	s, _, _, params := newTestServer(t, DefaultOptions())
	var raw map[string]json.RawMessage
	code := doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: params[0]}, &raw)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var results []map[string]json.RawMessage
	if err := json.Unmarshal(raw["results"], &results); err != nil {
		t.Fatal(err)
	}
	if _, present := results[0]["intervals"]; present {
		t.Fatal("point-only request serialized an intervals field")
	}
	if _, present := results[0]["runtimes"]; !present {
		t.Fatal("response missing runtimes")
	}
}

func TestPredictValidation(t *testing.T) {
	s, _, m, params := newTestServer(t, DefaultOptions())
	p := params[0]
	cases := []struct {
		name string
		body any
		code int
	}{
		{"no configs", PredictRequest{}, http.StatusBadRequest},
		{"wrong arity", PredictRequest{Params: p[:len(p)-1]}, http.StatusBadRequest},
		{"unknown model", PredictRequest{Model: "nope", Params: p}, http.StatusNotFound},
		{"bad interval", PredictRequest{Params: p, Interval: 1.5}, http.StatusBadRequest},
		{"negative interval", PredictRequest{Params: p, Interval: -0.1}, http.StatusBadRequest},
		{"interval with at", PredictRequest{Params: p, At: m.Cfg.LargeScales[0], Interval: 0.1}, http.StatusBadRequest},
		{"negative at", PredictRequest{Params: p, At: -3}, http.StatusBadRequest},
		{"non-target at (anchored)", PredictRequest{Params: p, At: 77}, http.StatusBadRequest},
		{"unknown field", map[string]any{"parms": p}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var errBody map[string]string
		if code := doJSON(t, s.Handler(), "POST", "/v1/predict", tc.body, &errBody); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		} else if errBody["error"] == "" {
			t.Errorf("%s: missing error body", tc.name)
		}
	}
	// Oversized batch and malformed JSON.
	big := make([][]float64, maxBatch+1)
	for i := range big {
		big[i] = p
	}
	if code := doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Configs: big}, nil); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d", code)
	}
	req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader([]byte("{nope")))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", w.Code)
	}
	// Method not allowed on a mux method pattern.
	req = httptest.NewRequest("GET", "/v1/predict", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d", w.Code)
	}
}

func TestModelsEndpoint(t *testing.T) {
	s, _, m, _ := newTestServer(t, DefaultOptions())
	var body struct {
		Models []ModelInfo `json:"models"`
	}
	if code := doJSON(t, s.Handler(), "GET", "/v1/models", nil, &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(body.Models) != 1 {
		t.Fatalf("%d models", len(body.Models))
	}
	info := body.Models[0]
	if info.Name != "default" || info.Version != 1 ||
		!reflect.DeepEqual(info.Params, m.ParamNames) ||
		!reflect.DeepEqual(info.LargeScales, m.Cfg.LargeScales) ||
		info.Clusters != m.Clusters() || info.TrainConfigs != m.TrainConfigs {
		t.Fatalf("model info %+v", info)
	}
}

func TestHealthz(t *testing.T) {
	s, _, _, _ := newTestServer(t, DefaultOptions())
	if code := doJSON(t, s.Handler(), "GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthy server: status %d", code)
	}
	empty := New(NewRegistry(), DefaultOptions())
	if code := doJSON(t, empty.Handler(), "GET", "/healthz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("empty server: status %d", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _, _, params := newTestServer(t, DefaultOptions())
	for i := 0; i < 3; i++ {
		doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: params[0]}, nil)
	}
	doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: []float64{1}}, nil) // 400
	var snap Snapshot
	if code := doJSON(t, s.Handler(), "GET", "/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	pred := snap.Endpoints["predict"]
	if pred.Requests != 4 || pred.Errors != 1 {
		t.Fatalf("predict endpoint stats %+v", pred)
	}
	if snap.Cache.Hits != 2 || snap.Cache.Misses != 1 {
		t.Fatalf("cache stats %+v", snap.Cache)
	}
	if snap.PredictionsTotal != 3 || snap.Models != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	if pred.Latency.Count != 4 || pred.Latency.SumSeconds <= 0 {
		t.Fatalf("latency histogram %+v", pred.Latency)
	}
	last := pred.Latency.Buckets[len(pred.Latency.Buckets)-1]
	if last.Count != 4 {
		t.Fatalf("+Inf bucket %+v, want cumulative 4", last)
	}
}

func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	path := saveFixture(t, dir)
	reg := NewRegistry(Source{Name: "default", Path: path})
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	s := New(reg, DefaultOptions())

	var body struct {
		Models []ModelInfo `json:"models"`
		Error  string      `json:"error"`
	}
	if code := doJSON(t, s.Handler(), "POST", "/v1/reload", nil, &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(body.Models) != 1 || body.Models[0].Version != 1 {
		t.Fatalf("reload body %+v", body)
	}
	// Corrupt the file: reload reports 500 but keeps serving v1.
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, s.Handler(), "POST", "/v1/reload", nil, &body); code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload: status %d", code)
	}
	if body.Error == "" || len(body.Models) != 1 {
		t.Fatalf("corrupt reload body %+v", body)
	}
	if code := doJSON(t, s.Handler(), "GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatal("server unhealthy after failed reload")
	}
}

// TestConcurrentLoadAndHotReload is the acceptance scenario: request
// goroutines hammer /v1/predict (a mix of repeated and fresh
// configurations) while the model file is rewritten and hot-reloaded
// concurrently. Every response must be a valid 200 and the metrics must
// show real traffic and cache hits. Run under -race this also proves
// the registry swap and cache are data-race free.
func TestConcurrentLoadAndHotReload(t *testing.T) {
	dir := t.TempDir()
	path := saveFixture(t, dir)
	reg := NewRegistry(Source{Name: "default", Path: path})
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Options{CacheSize: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, params := testModel(t)
	const clients = 8
	const perClient = 30
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rnd := rng.New(uint64(c))
			for i := 0; i < perClient; i++ {
				p := params[rnd.Intn(len(params))]
				raw, _ := json.Marshal(PredictRequest{Params: p})
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d err %v", c, resp.StatusCode, err)
					return
				}
				if len(pr.Results) != 1 || len(pr.Results[0].Runtimes) == 0 {
					t.Errorf("client %d: empty result %+v", c, pr)
					return
				}
			}
		}(c)
	}

	// Concurrently force real hot-swaps: append whitespace so the bytes
	// change (new version) while the decoded model stays valid.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err == nil {
				f.WriteString(" ")
				f.Close()
			}
			if err := reg.Reload(); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	e, _ := reg.Get("")
	if e.Version < 2 {
		t.Fatalf("no hot-swap happened: version %d", e.Version)
	}
	snap := s.snapshot()
	if snap.RequestsTotal < clients*perClient {
		t.Fatalf("requests_total %d < %d", snap.RequestsTotal, clients*perClient)
	}
	if snap.Cache.Hits == 0 {
		t.Fatal("no cache hits under repeated traffic")
	}
	if snap.ErrorsTotal != 0 {
		t.Fatalf("errors_total %d", snap.ErrorsTotal)
	}
}

// TestGracefulShutdownDrains starts a real listener, parks a slow
// request in flight, shuts down, and asserts the in-flight request
// completes while new connections are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	s, _, _, params := newTestServer(t, DefaultOptions())
	mux := http.NewServeMux()
	release := make(chan struct{})
	started := make(chan struct{})
	mux.HandleFunc("POST /slow-predict", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release // simulate a long prediction while shutdown begins
		r2 := httptest.NewRequest("POST", "/v1/predict", r.Body)
		s.Handler().ServeHTTP(w, r2)
	})
	mux.Handle("/", s.Handler())

	g := NewGraceful("127.0.0.1:0", mux, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- g.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		code int
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(PredictRequest{Params: params[0]})
		resp, err := http.Post(base+"/slow-predict", "application/json", bytes.NewReader(raw))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- result{code: resp.StatusCode}
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- g.Shutdown() }()
	time.Sleep(50 * time.Millisecond) // let Shutdown close the listener
	close(release)

	r := <-inflight
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %+v", r)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("connection accepted after shutdown")
	}
}

// TestPanicRecovery asserts a handler panic becomes a 500 and is
// counted, not a crashed server.
func TestPanicRecovery(t *testing.T) {
	m, params := testModel(t)
	reg := NewRegistry()
	reg.Install("default", m)
	s := New(reg, Options{CacheSize: 0})
	// PredictFromCurve panics on arity mismatch; reach a panic through a
	// request the validators can't pre-check by corrupting the model copy.
	// Simpler: panic via the instrument wrapper directly.
	h := s.instrument("other", func(w http.ResponseWriter, r *http.Request, _ *obs.ReqTrace) {
		panic("kaboom")
	})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/boom", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", w.Code)
	}
	snap := s.snapshot()
	if snap.PanicsTotal != 1 || snap.Endpoints["other"].Errors != 1 {
		t.Fatalf("snapshot after panic %+v", snap)
	}
	// The server still serves normal traffic.
	var resp PredictResponse
	if code := doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: params[0]}, &resp); code != http.StatusOK {
		t.Fatalf("post-panic predict status %d", code)
	}
}

// TestSingleConfigSpanTree pins the span tree of a traced
// one-configuration request, which the per-layer breakdown subtracts
// (cache_lookup − model_eval − calibration): on a miss, cache_lookup
// encloses model_eval and then calibration; on a hit, cache_lookup is
// the only one of the three.
func TestSingleConfigSpanTree(t *testing.T) {
	s, _, _, params := newTestServer(t, DefaultOptions())
	req := PredictRequest{Params: params[0], Interval: 0.8}
	spans := func() map[string][]obs.Span {
		t.Helper()
		var resp PredictResponse
		if code := doJSON(t, s.Handler(), "POST", "/v1/predict", req, &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		got := map[string][]obs.Span{}
		for _, sp := range s.Tracer().Snapshot(1, false)[0].Spans {
			got[sp.Name] = append(got[sp.Name], sp)
		}
		return got
	}
	end := func(sp obs.Span) int64 { return sp.StartNS + sp.DurNS }

	miss := spans()
	for _, name := range []string{"cache_lookup", "model_eval", "calibration"} {
		if len(miss[name]) != 1 {
			t.Fatalf("miss records %d %s spans, want 1 (spans %v)", len(miss[name]), name, miss)
		}
	}
	lookup, eval, cal := miss["cache_lookup"][0], miss["model_eval"][0], miss["calibration"][0]
	for _, inner := range []obs.Span{eval, cal} {
		if inner.StartNS < lookup.StartNS || end(inner) > end(lookup) {
			t.Fatalf("%s %+v outside cache_lookup %+v", inner.Name, inner, lookup)
		}
	}
	if end(eval) > cal.StartNS {
		t.Fatalf("model_eval %+v overlaps calibration %+v", eval, cal)
	}

	hit := spans()
	if len(hit["cache_lookup"]) != 1 || len(hit["model_eval"]) != 0 || len(hit["calibration"]) != 0 {
		t.Fatalf("hit spans %v, want cache_lookup alone", hit)
	}
}
