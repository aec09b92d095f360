package serving

import (
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/uncertainty"
)

func TestObserveFeedsMonitorAndKicksOnDrift(t *testing.T) {
	var mu sync.Mutex
	var kicks []string
	opts := DefaultOptions()
	opts.Drift = uncertainty.DriftConfig{Window: 8, MinObservations: 4, Coverage: 0.8, Floor: 0.75}
	opts.OnDrift = func(model, reason, origin string) {
		mu.Lock()
		kicks = append(kicks, model+"|"+reason)
		mu.Unlock()
	}
	s, _, m, params := newTestServer(t, opts)
	p := params[0]
	scale := m.Cfg.LargeScales[0]
	inside := m.Predict(p)[0] // the point prediction is always in its own band

	// In-band observations: covered, no drift.
	var resp ObserveResponse
	code := doJSON(t, s.Handler(), "POST", "/v1/observe",
		ObserveRequest{Params: p, Scale: scale, Runtime: inside}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	res := resp.Results[0]
	if !res.Covered || res.Drift {
		t.Fatalf("in-band observation scored %+v", res)
	}
	if res.Lo >= res.Hi || res.Predicted < res.Lo || res.Predicted > res.Hi {
		t.Fatalf("degenerate band %+v", res)
	}
	if resp.Monitor.Observations != 1 || len(resp.Monitor.Windows) != 1 {
		t.Fatalf("monitor snapshot %+v", resp.Monitor)
	}

	// A batch of runtimes far outside the band: coverage collapses, the
	// breach fires exactly once, and the hook sees the diagnosis.
	shifted := make([]Observation, 6)
	for i := range shifted {
		shifted[i] = Observation{Params: p, Scale: scale, Runtime: inside * 50}
	}
	code = doJSON(t, s.Handler(), "POST", "/v1/observe", ObserveRequest{Observations: shifted}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	drifted := 0
	for _, r := range resp.Results {
		if r.Covered {
			t.Fatalf("50x-shifted runtime scored covered: %+v", r)
		}
		if r.Drift {
			drifted++
			if r.Reason == "" {
				t.Fatal("drift edge without a reason")
			}
		}
	}
	if drifted != 1 {
		t.Fatalf("%d drift edges in one breach episode, want 1", drifted)
	}
	if !resp.Monitor.Breached || resp.Monitor.Kicks != 1 {
		t.Fatalf("monitor after breach: %+v", resp.Monitor)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(kicks) != 1 || kicks[0][:8] != "default|" {
		t.Fatalf("OnDrift calls %v", kicks)
	}

	// /metrics exports the counters and the rolling windows.
	var snap Snapshot
	if code := doJSON(t, s.Handler(), "GET", "/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	u := snap.Uncertainty
	if u == nil {
		t.Fatal("metrics missing uncertainty section")
	}
	if u.Observations != 7 || u.DriftKicks != 1 || len(u.Monitors) != 1 {
		t.Fatalf("uncertainty snapshot %+v", u)
	}
	if w := u.Monitors[0].Windows[0]; w.Scale != scale || w.N != 7 {
		t.Fatalf("window %+v", w)
	}
	if _, ok := snap.Endpoints["observe"]; !ok {
		t.Fatal("observe endpoint not instrumented")
	}
}

func TestObserveValidation(t *testing.T) {
	s, _, m, params := newTestServer(t, DefaultOptions())
	p := params[0]
	scale := m.Cfg.LargeScales[0]
	cases := []struct {
		name string
		body any
		code int
	}{
		{"empty", ObserveRequest{}, http.StatusBadRequest},
		{"unknown model", ObserveRequest{Model: "nope", Params: p, Scale: scale, Runtime: 1}, http.StatusNotFound},
		{"wrong arity", ObserveRequest{Params: p[:1], Scale: scale, Runtime: 1}, http.StatusBadRequest},
		{"non-target scale", ObserveRequest{Params: p, Scale: 77, Runtime: 1}, http.StatusBadRequest},
		{"zero runtime", ObserveRequest{Params: p, Scale: scale, Runtime: 0}, http.StatusBadRequest},
		{"unknown field", map[string]any{"parms": p}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var errBody map[string]string
		if code := doJSON(t, s.Handler(), "POST", "/v1/observe", tc.body, &errBody); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		} else if errBody["error"] == "" {
			t.Errorf("%s: missing error body", tc.name)
		}
	}
}

func TestModelsReportCalibrationStatus(t *testing.T) {
	s, _, _, _ := newTestServer(t, DefaultOptions())
	var body struct {
		Models []ModelInfo `json:"models"`
	}
	if code := doJSON(t, s.Handler(), "GET", "/v1/models", nil, &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// The fixture model is fitted directly (no pipeline holdout), so it
	// must honestly report itself uncalibrated.
	if body.Models[0].Calibrated || body.Models[0].CalibrationSamples != 0 {
		t.Fatalf("uncalibrated fixture reports %+v", body.Models[0])
	}
}

// TestObserveRejectedBatchLeavesMonitorUntouched: a request is checked
// whole before any of it is scored, so observations ahead of an invalid
// one never reach the drift monitor of a request that gets a 400.
func TestObserveRejectedBatchLeavesMonitorUntouched(t *testing.T) {
	s, _, m, params := newTestServer(t, DefaultOptions())
	p := params[0]
	scale := m.Cfg.LargeScales[0]
	runtime := m.Predict(p)[0]
	var resp ObserveResponse
	if code := doJSON(t, s.Handler(), "POST", "/v1/observe",
		ObserveRequest{Params: p, Scale: scale, Runtime: runtime}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	before, beforeN := s.drift.Snapshot(), s.metrics.observations.Load()

	var errBody map[string]string
	code := doJSON(t, s.Handler(), "POST", "/v1/observe", ObserveRequest{Observations: []Observation{
		{Params: p, Scale: scale, Runtime: runtime},
		{Params: params[1], Scale: scale, Runtime: 50 * runtime},
		{Params: p, Scale: 77, Runtime: runtime},
	}}, &errBody)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if want := "observation 2 at scale 77"; !strings.Contains(errBody["error"], want) {
		t.Fatalf("error %q does not name %q", errBody["error"], want)
	}
	if after := s.drift.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected request moved the monitor:\nbefore %+v\nafter  %+v", before, after)
	}
	if n := s.metrics.observations.Load(); n != beforeN {
		t.Fatalf("observations counter %d after a rejected request, want %d", n, beforeN)
	}
}
