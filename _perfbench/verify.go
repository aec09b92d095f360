package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/serving"
)

// oracle answers every request in process from the generation files the
// server promoted, loaded with core.Load, so each 200 can be checked
// against what that generation must say.
type oracle struct {
	gens string // the server's generations directory

	mu      sync.Mutex
	byVer   map[int]*core.TwoLevelModel
	genOf   []int // genOf[v-1] is the generation served as registry version v
	answers map[string]*serving.ConfigResult
}

func newOracle(gens string) *oracle {
	return &oracle{gens: gens, byVer: map[int]*core.TwoLevelModel{}, answers: map[string]*serving.ConfigResult{}}
}

// model returns the model a response with registry version v was served
// from. The server installs its active generation as version 1 and every
// later promotion as the next version, so version v is the v-th
// promotion in the journal.
func (o *oracle) model(v int) (*core.TwoLevelModel, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if m, ok := o.byVer[v]; ok {
		return m, nil
	}
	if v > len(o.genOf) {
		j, err := pipeline.OpenJournal(filepath.Join(o.gens, "journal.jsonl"))
		if err != nil {
			return nil, err
		}
		o.genOf = o.genOf[:0]
		for _, e := range j.Entries() {
			if e.Event == pipeline.EventPromoted && e.App == appName {
				o.genOf = append(o.genOf, e.Gen)
			}
		}
	}
	if v < 1 || v > len(o.genOf) {
		return nil, fmt.Errorf("response carries version %d; the journal lists %d promotions", v, len(o.genOf))
	}
	m, err := core.Load(filepath.Join(o.gens, fmt.Sprintf("%s-gen%06d.json", appName, o.genOf[v-1])))
	if err != nil {
		return nil, err
	}
	m.Compile()
	o.byVer[v] = m
	return m, nil
}

// expected is the in-process answer for one configuration, round-tripped
// through JSON exactly as the server's answer is.
func (o *oracle) expected(v int, cfg []float64, withInterval bool) (*serving.ConfigResult, error) {
	key := fmt.Sprintf("%d|%t|%s", v, withInterval, dataset.ParamKey(cfg))
	o.mu.Lock()
	r, ok := o.answers[key]
	o.mu.Unlock()
	if ok {
		return r, nil
	}
	m, err := o.model(v)
	if err != nil {
		return nil, err
	}
	res := serving.ConfigResult{
		Params:   cfg,
		Cluster:  m.AssignCluster(cfg),
		Scales:   m.Cfg.LargeScales,
		Runtimes: m.Predict(cfg),
	}
	if withInterval {
		res.Intervals = m.PredictIntervalCov(cfg, coverage)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	r = new(serving.ConfigResult)
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.answers[key] = r
	o.mu.Unlock()
	return r, nil
}

// check verifies one 200 answer.
func (o *oracle) check(req *request, body []byte) error {
	if req.class == observe {
		return o.checkObserve(req, body)
	}
	var resp serving.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decoding answer: %w", req.id, err)
	}
	if resp.Model != appName || len(resp.Results) != len(req.configs) {
		return fmt.Errorf("%s: answer names model %q with %d results, want %q with %d",
			req.id, resp.Model, len(resp.Results), appName, len(req.configs))
	}
	for i, cfg := range req.configs {
		want, err := o.expected(resp.Version, cfg, req.interval)
		if err != nil {
			return fmt.Errorf("%s: %w", req.id, err)
		}
		if err := sameResult(&resp.Results[i], want); err != nil {
			return fmt.Errorf("%s: result %d (version %d): %w", req.id, i, resp.Version, err)
		}
	}
	return nil
}

// checkObserve verifies an observation was scored against the served
// generation's interval at the drift monitor's nominal coverage.
func (o *oracle) checkObserve(req *request, body []byte) error {
	var resp serving.ObserveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decoding answer: %w", req.id, err)
	}
	if resp.Model != appName || len(resp.Results) != 1 {
		return fmt.Errorf("%s: answer names model %q with %d results", req.id, resp.Model, len(resp.Results))
	}
	want, err := o.expected(resp.Version, req.obs.Params, true)
	if err != nil {
		return fmt.Errorf("%s: %w", req.id, err)
	}
	got := resp.Results[0]
	for _, iv := range want.Intervals {
		if iv.Scale != req.obs.Scale {
			continue
		}
		covered := iv.Lo <= req.obs.Runtime && req.obs.Runtime <= iv.Hi
		if !sameFloat(got.Predicted, iv.Mid) || !sameFloat(got.Lo, iv.Lo) || !sameFloat(got.Hi, iv.Hi) || got.Covered != covered {
			return fmt.Errorf("%s: observation scored %+v, want interval %+v", req.id, got, iv)
		}
		return nil
	}
	return fmt.Errorf("%s: scale %d is not a target scale", req.id, req.obs.Scale)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameResult(got, want *serving.ConfigResult) error {
	if !sameFloats(got.Params, want.Params) {
		return fmt.Errorf("params %v, want %v", got.Params, want.Params)
	}
	if got.Cluster != want.Cluster {
		return fmt.Errorf("cluster %d, want %d", got.Cluster, want.Cluster)
	}
	if fmt.Sprint(got.Scales) != fmt.Sprint(want.Scales) {
		return fmt.Errorf("scales %v, want %v", got.Scales, want.Scales)
	}
	if !sameFloats(got.Runtimes, want.Runtimes) {
		return fmt.Errorf("runtimes %v, want %v", got.Runtimes, want.Runtimes)
	}
	if len(got.Intervals) != len(want.Intervals) {
		return fmt.Errorf("%d intervals, want %d", len(got.Intervals), len(want.Intervals))
	}
	for i, g := range got.Intervals {
		w := want.Intervals[i]
		if g.Scale != w.Scale || g.Source != w.Source || !sameFloat(g.Lo, w.Lo) || !sameFloat(g.Mid, w.Mid) || !sameFloat(g.Hi, w.Hi) {
			return fmt.Errorf("interval %+v, want %+v", g, w)
		}
	}
	return nil
}

// tally is the account of a set of outcomes after checking. ok counts
// correct 200s; wrong counts wrong 200s and statuses other than 200 and
// 503, which no correct server sends these requests.
type tally struct {
	attempted, ok, wrong                int
	firstWrong                          error
	predict200, predict503, predictSent int // /v1/predict only, for the /metrics cross-check
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.ok += u.ok
	t.wrong += u.wrong
	t.predict200 += u.predict200
	t.predict503 += u.predict503
	t.predictSent += u.predictSent
	if t.firstWrong == nil {
		t.firstWrong = u.firstWrong
	}
}

// verify checks every outcome, using every CPU, and records each one's
// verdict in it.
func (o *oracle) verify(outs []*outcome) {
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(outs); i += workers {
				outs[i].verdict = o.verifyOne(outs[i])
			}
		}(w)
	}
	wg.Wait()
}

// account sums verified outcomes' verdicts.
func account(outs []*outcome) tally {
	var t tally
	for _, o := range outs {
		t.add(o.verdict)
	}
	return t
}

// ptrs returns pointers to every element of outs.
func ptrs(outs []outcome) []*outcome {
	p := make([]*outcome, len(outs))
	for i := range outs {
		p[i] = &outs[i]
	}
	return p
}

func (o *oracle) verifyOne(out *outcome) tally {
	t := tally{attempted: 1}
	if out.dropped {
		return t
	}
	isPredict := out.req.class != observe
	if isPredict {
		t.predictSent = 1
	}
	if out.err != nil {
		return t
	}
	switch out.status {
	case http.StatusOK:
		if isPredict {
			t.predict200 = 1
		}
		if err := o.check(out.req, out.body); err != nil {
			t.wrong = 1
			t.firstWrong = err
			return t
		}
		t.ok = 1
	case http.StatusServiceUnavailable:
		if isPredict {
			t.predict503 = 1
		}
	default:
		t.wrong = 1
		t.firstWrong = fmt.Errorf("%s: status %d: %s", out.req.id, out.status, out.body)
	}
	return t
}
