package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
// to promotion.
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
	srv := serving.New(reg, opts)
	h := srv.Handler()

	p, err := New(store, t.TempDir(), testPipelineConfig(), reg)
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
	// cycles.
	if _, err := p.Rollback(testApp, ""); err != nil {
		t.Fatal(err)
	}

	// The cycle counters and stage histograms surface in the shared
	// registry's Prometheus exposition, and the output stays valid.
	var buf bytes.Buffer
	if err := oreg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	seen := map[string]bool{}
	events := map[string]float64{}
	for _, f := range fams {
		seen[f.Name] = true
		if f.Name == "repro_pipeline_cycles_total" {
			for _, s := range f.Samples {
				events[s.Labels["event"]] = s.Value
			}
		}
	}
	if events["promoted"] != 2 || events["rollback"] != 1 {
		t.Fatalf("repro_pipeline_cycles_total by event = %v, want 2 promoted and 1 rollback", events)
	}
	for _, want := range []string{"repro_pipeline_cycles_total", "repro_pipeline_stage_duration_seconds"} {
		if !seen[want] {
			t.Fatalf("exposition missing family %q", want)
		}
	}
}
