package serving

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/uncertainty"
)

// Observation is one measured runtime for a configuration the model
// predicted at a target scale.
type Observation struct {
	Params  []float64 `json:"params"`
	Scale   int       `json:"scale"`
	Runtime float64   `json:"runtime"`
}

// ObserveRequest is the POST /v1/observe body. Provide a single
// observation inline (Params/Scale/Runtime) or a batch in Observations
// (or both; the inline one is prepended).
type ObserveRequest struct {
	// Model selects a registry entry; empty resolves like Registry.Get.
	Model string `json:"model,omitempty"`

	Params  []float64 `json:"params,omitempty"`
	Scale   int       `json:"scale,omitempty"`
	Runtime float64   `json:"runtime,omitempty"`

	Observations []Observation `json:"observations,omitempty"`
}

// ObserveResult scores one observation against the active model's
// interval at the drift monitor's nominal coverage.
type ObserveResult struct {
	Scale     int     `json:"scale"`
	Predicted float64 `json:"predicted"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	Covered   bool    `json:"covered"`
	APE       float64 `json:"ape"`
	// Drift marks the observation whose arrival tipped the model's
	// rolling coverage below the floor and kicked retraining.
	Drift  bool   `json:"drift,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// ObserveResponse is the POST /v1/observe reply.
type ObserveResponse struct {
	Model   string                      `json:"model"`
	Version int                         `json:"version"`
	Results []ObserveResult             `json:"results"`
	Monitor uncertainty.MonitorSnapshot `json:"monitor"`
}

// handleObserve ingests measured runtimes for past predictions: each is
// scored against the active generation's interval at the monitor's
// nominal coverage, feeding the per-scale coverage/MAPE windows that
// detect drift. The request's configurations are evaluated as one batch
// (core.EvaluateBatch), and the monitor is fed in index order. The loop
// is feedback, not bookkeeping — a breach here kicks the retraining
// pipeline through the server's OnDrift hook.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request, rt *obs.ReqTrace) {
	var req ObserveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}

	entry, ok := s.reg.Get(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("model %q not loaded", orDefault(req.Model)))
		return
	}

	obs := req.Observations
	if len(req.Params) > 0 {
		obs = append([]Observation{{Params: req.Params, Scale: req.Scale, Runtime: req.Runtime}}, obs...)
	}
	switch {
	case len(obs) == 0:
		writeError(w, http.StatusBadRequest, "provide an observation or a batch of observations")
		return
	case len(obs) > maxBatch:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", len(obs), maxBatch))
		return
	}

	// Every observation is checked before any reaches the monitor, so a
	// rejected request leaves the monitor as it found it.
	m := entry.Model
	want := len(m.ParamNames)
	rows := make([][]float64, len(obs))
	scaleIdx := make([]int, len(obs))
	for i, o := range obs {
		if len(o.Params) != want {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"observation %d has %d values, model %q expects %d (%v)",
				i, len(o.Params), entry.Name, want, m.ParamNames))
			return
		}
		if o.Runtime <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("observation %d has non-positive runtime %v", i, o.Runtime))
			return
		}
		scaleIdx[i] = slices.Index(m.Cfg.LargeScales, o.Scale)
		if scaleIdx[i] < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"observation %d at scale %d: model %q serves scales %v",
				i, o.Scale, entry.Name, m.Cfg.LargeScales))
			return
		}
		rows[i] = o.Params
	}

	evs := make([]core.Eval, len(obs))
	m.EvaluateBatch(rows, s.drift.Config().Coverage, evs)
	resp := ObserveResponse{Model: entry.Name, Version: entry.Version, Results: make([]ObserveResult, len(obs))}
	for i, o := range obs {
		iv := m.Intervals(&evs[i])[scaleIdx[i]]
		// The request ID rides along as the observation's origin: if this
		// is the observation that tips coverage below the floor, the drift
		// kick (and the journal entry the retrain writes) carries it, so
		// the whole retraining episode is traceable back to this request.
		out := s.drift.Observe(entry.Name, o.Scale, iv.Mid, iv.Lo, iv.Hi, o.Runtime, rt.ID())
		resp.Results[i] = ObserveResult{
			Scale: o.Scale, Predicted: iv.Mid, Lo: iv.Lo, Hi: iv.Hi,
			Covered: out.Covered, APE: out.APE, Drift: out.BreachStarted, Reason: out.Reason,
		}
		s.metrics.observations.Inc()
	}
	resp.Monitor = s.drift.Monitor(entry.Name).Snapshot()
	resp.Monitor.Model = entry.Name
	writeJSON(w, http.StatusOK, resp)
}
