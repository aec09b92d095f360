package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/loadctl"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/uncertainty"
)

// doJSONID is doJSON plus an explicit X-Request-Id; it returns the
// status and the ID the server echoed back.
func doJSONID(t *testing.T, h http.Handler, method, path, reqID string, body, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(raw))
	req.Header.Set(obs.RequestIDHeader, reqID)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code, rec.Header().Get(obs.RequestIDHeader)
}

// TestDriftTraceableToRequestID walks the full observability chain: a
// client-supplied X-Request-Id on /v1/observe is echoed back, rides the
// breach into the pipeline kick, lands in the cycle's journal entry as
// Origin, and the retraining run itself appears in the shared trace
// ring with its per-stage spans. One request ID, traceable from ingest
// to promotion. The same run, plus a rejection, cache hits, a coalesced
// wait, a 4xx and a reload, then shows that every /metrics JSON counter
// equals its Prometheus series: both renderings read one store.
func TestDriftTraceableToRequestID(t *testing.T) {
	_, more := testHistories(t)
	store := newSeededStore(t, t.TempDir())
	reg := serving.NewRegistry()

	oreg := obs.NewRegistry("repro")
	tracer := obs.NewTracer(64)

	var p *Pipeline
	opts := serving.DefaultOptions()
	opts.Obs = oreg
	opts.Tracer = tracer
	opts.Drift = uncertainty.DriftConfig{Window: 16, MinObservations: 8, Coverage: 0.75, Floor: 0.6}
	opts.OnDrift = func(model, reason, origin string) { p.Kick(model, reason, origin) }
	// Every cache miss takes this long, so a second request for the same
	// key reliably finds the first one's computation in flight.
	opts.SyntheticDelay = 250 * time.Millisecond
	opts.Load = loadctl.Config{FixedLimit: true}
	srv := serving.New(reg, opts)
	h := srv.Handler()

	gensDir := t.TempDir()
	p, err := New(store, gensDir, testPipelineConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableObs(oreg, tracer)

	res, err := p.RunOnce(testApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("bootstrap cycle: %+v", res)
	}
	if res.Origin != "" {
		t.Fatalf("count-policy cycle carries origin %q, want none", res.Origin)
	}

	probe := more.Runs[0].Params
	var pr struct {
		Results []struct {
			Runtimes []float64 `json:"runtimes"`
		} `json:"results"`
	}
	if code := doJSON(t, h, "POST", "/v1/predict",
		map[string]any{"model": testApp, "params": probe, "interval": 0.75}, &pr); code != http.StatusOK {
		t.Fatalf("predict returned %d", code)
	}
	predicted := pr.Results[0].Runtimes[0]
	scale := testLarge[0]

	// Shifted observations, each under its own request ID. Remember the
	// one whose arrival breached the floor.
	breachID := ""
	for i := 0; i < 12 && breachID == ""; i++ {
		id := fmt.Sprintf("e2e-obs-%d", i)
		var or struct {
			Results []struct {
				Drift bool `json:"drift"`
			} `json:"results"`
		}
		code, echoed := doJSONID(t, h, "POST", "/v1/observe", id, map[string]any{
			"model": testApp, "params": probe, "scale": scale, "runtime": predicted * 3,
		}, &or)
		if code != http.StatusOK {
			t.Fatalf("observe returned %d", code)
		}
		if echoed != id {
			t.Fatalf("observe echoed request ID %q, want %q", echoed, id)
		}
		if or.Results[0].Drift {
			breachID = id
		}
	}
	if breachID == "" {
		t.Fatal("12 shifted observations never breached the coverage floor")
	}

	// The kicked cycle carries the breaching request's ID end to end.
	res, err = p.RunOnce(testApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("drift-kicked cycle did not promote: %+v", res)
	}
	if res.Origin != breachID {
		t.Fatalf("cycle origin %q, want breaching request ID %q", res.Origin, breachID)
	}
	entries := p.Journal().Entries()
	last := entries[len(entries)-1]
	if last.Gen != res.Gen || last.Origin != breachID {
		t.Fatalf("journal entry gen %d origin %q, want gen %d origin %q",
			last.Gen, last.Origin, res.Gen, breachID)
	}
	if !strings.Contains(last.Trigger, "drift") {
		t.Fatalf("journal trigger %q does not name drift", last.Trigger)
	}

	// The retraining run is in the same trace ring as the HTTP requests,
	// under its deterministic run ID, with per-stage spans.
	runID := fmt.Sprintf("run-%s-gen%d", testApp, res.Gen)
	var run *obs.Trace
	for _, tr := range tracer.Snapshot(0, false) {
		if tr.Kind == "pipeline" && tr.ID == runID {
			cp := tr
			run = &cp
			break
		}
	}
	if run == nil {
		t.Fatalf("no pipeline trace %q in ring", runID)
	}
	spans := map[string]bool{}
	for _, sp := range run.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"fit", "calibrate", "gate"} {
		if !spans[want] {
			t.Fatalf("pipeline trace %q missing span %q (has %v)", runID, want, run.Spans)
		}
	}

	// Rolling the drift-kicked generation back is counted with the
	// cycles, and so is a rejection by a second pipeline whose gate no
	// candidate can pass.
	if _, err := p.Rollback(testApp, ""); err != nil {
		t.Fatal(err)
	}
	strictCfg := testPipelineConfig()
	strictCfg.Gate.AllowedRegression = -0.999
	strict, err := New(store, gensDir, strictCfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	strict.EnableObs(oreg, tracer)
	strict.Kick(testApp, "", "")
	if res, err := strict.RunOnce(testApp, ""); err != nil || res.Promoted {
		t.Fatalf("strict cycle: %+v, %v", res, err)
	}

	// Serving: a miss and hits, one coalesced wait, a 4xx, a reload.
	predict := func(params []float64, want int) {
		t.Helper()
		if code := doJSON(t, h, "POST", "/v1/predict",
			map[string]any{"model": testApp, "params": params}, nil); code != want {
			t.Errorf("predict %v returned %d, want %d", params, code, want)
		}
	}
	for range 3 {
		predict(probe, http.StatusOK)
	}
	other := more.Runs[len(more.Runs)-1].Params
	misses := srv.Cache().Stats().Misses
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		predict(other, http.StatusOK) // the computing miss
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.Cache().Stats().Misses == misses; {
		if time.Now().After(deadline) {
			t.Fatal("the first request for a new configuration never missed the cache")
		}
		time.Sleep(time.Millisecond)
	}
	predict(other, http.StatusOK) // coalesced into it
	wg.Wait()
	if c := srv.Cache().Stats().Coalesced; c != 1 {
		t.Fatalf("coalesced = %d, want 1 (the second request missed the in-flight computation)", c)
	}
	predict([]float64{1}, http.StatusBadRequest)
	if code := doJSON(t, h, "POST", "/v1/reload", nil, nil); code != http.StatusOK {
		t.Fatalf("reload returned %d", code)
	}

	// The cycle counters and stage histograms surface in the shared
	// registry's Prometheus exposition, and the output stays valid. The
	// text is rendered before the JSON: the JSON handler snapshots
	// before its own request is counted, so both see one registry state.
	text := exposition(t, oreg)
	if text["repro_pipeline_cycles_total{event=promoted}"] != 2 ||
		text["repro_pipeline_cycles_total{event=rejected}"] != 1 ||
		text["repro_pipeline_cycles_total{event=rollback}"] != 1 {
		t.Fatalf("repro_pipeline_cycles_total = %v promoted, %v rejected, %v rollback; want 2, 1, 1",
			text["repro_pipeline_cycles_total{event=promoted}"], text["repro_pipeline_cycles_total{event=rejected}"],
			text["repro_pipeline_cycles_total{event=rollback}"])
	}
	if _, ok := text["repro_pipeline_stage_duration_seconds_count{stage=fit}"]; !ok {
		t.Fatal("exposition has no repro_pipeline_stage_duration_seconds series for the fit stage")
	}

	// Every /metrics JSON counter equals its Prometheus series: both
	// renderings read the same handles.
	snap := metricsSnapshot(t, h)
	agree := func(series string, jsonValue float64) {
		t.Helper()
		if v, ok := text[series]; !ok {
			t.Errorf("%s: no text series (JSON says %v)", series, jsonValue)
		} else if v != jsonValue {
			t.Errorf("%s = %v in the text, %v in the JSON", series, v, jsonValue)
		}
	}
	for key := range text {
		name, ep, ok := strings.Cut(key, "{endpoint=")
		if !ok || strings.Contains(ep, ",") {
			continue // not a per-endpoint counter (histogram buckets carry le too)
		}
		es := snap.Endpoints[strings.TrimSuffix(ep, "}")] // absent from the JSON = zero
		switch name {
		case "repro_http_requests_total":
			agree(key, float64(es.Requests))
		case "repro_http_request_errors_total":
			agree(key, float64(es.Errors))
		case "repro_http_request_duration_seconds_count":
			agree(key, float64(es.Latency.Count))
		case "repro_http_request_duration_seconds_sum":
			agree(key, es.Latency.SumSeconds)
		}
	}
	for _, ep := range []string{"predict", "observe", "reload"} {
		// Text buckets in le order, against the JSON's cumulative list.
		prefix := "repro_http_request_duration_seconds_bucket{endpoint=" + ep + ",le="
		var les []float64
		byLe := map[float64]string{}
		for key := range text {
			if rest, ok := strings.CutPrefix(key, prefix); ok {
				le, err := strconv.ParseFloat(strings.TrimSuffix(rest, "}"), 64)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				les = append(les, le)
				byLe[le] = key
			}
		}
		slices.Sort(les)
		buckets := snap.Endpoints[ep].Latency.Buckets
		if len(les) != len(buckets) {
			t.Fatalf("%s: %d text buckets, %d JSON buckets", ep, len(les), len(buckets))
		}
		for i, b := range buckets {
			agree(byLe[les[i]], float64(b.Count))
		}
	}

	agree("repro_predictions_total", float64(snap.PredictionsTotal))
	agree("repro_panics_total", float64(snap.PanicsTotal))
	agree("repro_interval_requests_total", float64(snap.Uncertainty.IntervalRequests))
	agree("repro_observations_total", float64(snap.Uncertainty.Observations))
	agree("repro_drift_kicks_total", float64(snap.Uncertainty.DriftKicks))

	c := snap.Cache
	agree("repro_cache_hits_total", float64(c.Hits))
	agree("repro_cache_misses_total", float64(c.Misses))
	agree("repro_cache_coalesced_total", float64(c.Coalesced))
	agree("repro_cache_abandoned_total", float64(c.Abandoned))
	agree("repro_cache_evictions_total", float64(c.Evictions))
	agree("repro_cache_entries", float64(c.Size))

	agree("repro_model_reloads_total", float64(snap.ReloadsTotal))
	agree("repro_models", float64(snap.Models))

	pl := snap.Pipeline
	agree("repro_pipeline_cycles_total{event=promoted}", float64(pl.Promotions))
	agree("repro_pipeline_cycles_total{event=rejected}", float64(pl.Rejections))
	agree("repro_pipeline_cycles_total{event=rollback}", float64(pl.Rollbacks))

	ld := snap.Load
	agree("repro_load_admitted_total", float64(ld.Admitted.Total()))
	agree("repro_load_completed_total", float64(ld.Completed))
	agree("repro_load_shed_total", float64(ld.ShedTotal()))
	agree("repro_load_degraded_served_total", float64(ld.DegradedServed))

	// The run must have moved what it claims to compare.
	if c.Hits < 2 || c.Misses < 2 || snap.Endpoints["predict"].Errors != 1 || snap.ReloadsTotal != 1 ||
		snap.Uncertainty.IntervalRequests == 0 || snap.Uncertainty.DriftKicks == 0 || ld.Admitted.Total() == 0 {
		t.Fatalf("the drive did not produce the expected events: cache %+v, uncertainty %+v, reloads %d",
			c, snap.Uncertainty, snap.ReloadsTotal)
	}
}

// exposition renders oreg as Prometheus text, validates it with
// obs.ParseExposition, and indexes every sample as `name{k=v,...}`
// (labels sorted by key; bare name when unlabeled).
func exposition(t *testing.T, oreg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := oreg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			if len(s.Labels) > 0 {
				pairs := make([]string, 0, len(s.Labels))
				for k, v := range s.Labels {
					pairs = append(pairs, k+"="+v)
				}
				slices.Sort(pairs)
				key += "{" + strings.Join(pairs, ",") + "}"
			}
			out[key] = s.Value
		}
	}
	return out
}
