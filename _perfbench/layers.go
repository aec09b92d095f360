package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/linmod"
	"repro/internal/loadctl"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/treec"
	"repro/internal/uncertainty"
)

// additivityTolerance is how much of a cache-miss point request's handler
// time, measured around ServeHTTP, the blocking steps may leave
// unaccounted: the benchmark's own timings of that request's decode and
// encode plus the server's compute and queue-wait spans.
const additivityTolerance = 0.10

// replayMax caps how many of the window's configurations each in-process
// layer timing replays.
const replayMax = 1000

// layers times calls into each layer's public functions in process, on
// the workload's own inputs, and records one per-layer metric each.
func (r *runner) layers(res *result, window []request) error {
	genPath := filepath.Join(r.setup.gens, fmt.Sprintf("%s-gen%06d.json", appName, 1))
	var loads, compiles []time.Duration
	var m *core.TwoLevelModel
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		lm, err := core.Load(genPath)
		if err != nil {
			return err
		}
		loads = append(loads, time.Since(t0))
		t0 = time.Now()
		lm.Compile()
		compiles = append(compiles, time.Since(t0))
		m = lm
	}
	res.add("core.load_ms", medianDur(loads, ms), "ms", len(loads))
	res.add("treec.compile_ms", medianDur(compiles, ms), "ms", len(compiles))

	// The window's point requests, in arrival order.
	var points [][]float64
	var bodies [][]byte
	var observes []serving.Observation
	for i := range window {
		switch window[i].class {
		case point:
			if len(points) < replayMax {
				points = append(points, window[i].configs[0])
				bodies = append(bodies, window[i].body)
			}
		case observe:
			observes = append(observes, window[i].obs)
		}
	}
	// Page the model in on the held-out configurations, which no timed
	// call uses, so the timings see the model's memory as a serving
	// process does rather than its first touch.
	for _, c := range r.in.heldOut {
		m.PredictIntervalCov(c, coverage)
	}
	n := len(points)
	small := make([]float64, len(m.Cfg.SmallScales))
	large := make([]float64, len(m.Cfg.LargeScales))
	curves := make([][]float64, n)
	for i, p := range points {
		curves[i] = m.PredictSmall(p)
	}
	res.add("core.predict_small_us", us(timeEach(n, 1, func(i int) { m.PredictSmallInto(points[i], small) })), "us", n)
	res.add("core.assign_us", us(timeEach(n, 1, func(i int) { m.AssignCluster(points[i]) })), "us", n)
	res.add("core.extrapolate_us", us(timeEach(n, 100, func(i int) { m.PredictFromCurveInto(curves[i], large) })), "us", n)
	res.add("core.predict_us", us(timeEach(n, 1, func(i int) { m.PredictInto(points[i], large) })), "us", n)
	res.add("core.interval_us", us(timeEach(n, 1, func(i int) { m.PredictIntervalCov(points[i], coverage) })), "us", n)

	tf := treec.CompileForest(m.Interp[0])
	qs := []float64{(1 - coverage) / 2, (1 + coverage) / 2}
	scratch := make([]float64, len(m.Interp[0].Trees))
	band := make([]float64, len(qs))
	res.add("treec.forest_predict_us", us(timeEach(n, 10, func(i int) { tf.Predict(points[i]) })), "us", n)
	res.add("treec.quantiles_us", us(timeEach(n, 10, func(i int) { tf.PredictQuantilesInto(points[i], qs, scratch, band) })), "us", n)

	cal := m.Meta.Calibration
	clusters := make([]int, n)
	for i := range points {
		clusters[i] = m.AssignCluster(points[i])
	}
	res.add("uncertainty.factor_ns", float64(timeEach(n, 1000, func(i int) {
		cal.Factor(clusters[i], m.Cfg.LargeScales[i%len(m.Cfg.LargeScales)], coverage)
	})), "ns", n)
	mon := uncertainty.NewMonitorSet(uncertainty.DriftConfig{Floor: 0.01}, nil)
	obsIv := make([][]core.Interval, len(observes))
	for i, o := range observes {
		obsIv[i] = m.PredictIntervalCov(o.Params, coverage)
	}
	res.add("uncertainty.observe_us", us(timeEach(len(observes), 100, func(i int) {
		o := observes[i]
		for _, iv := range obsIv[i] {
			if iv.Scale == o.Scale {
				mon.Observe(appName, o.Scale, iv.Mid, iv.Lo, iv.Hi, o.Runtime, "")
			}
		}
	})), "us", len(observes))

	lc := loadctl.New(loadctl.Config{})
	res.add("loadctl.acquire_release_ns", float64(timeEach(100, 1000, func(int) {
		if _, shed := lc.Acquire(loadctl.Point, 0); shed == nil {
			lc.Release(time.Microsecond)
		}
	})), "ns", 100*1000)

	if err := r.servingLayers(res, m, genPath, points, bodies); err != nil {
		return err
	}
	if err := r.fitLayers(res, m); err != nil {
		return err
	}
	return r.pipelineLayers(res)
}

// servingLayers times JSON decode and encode and the handler in
// process, then checks that decode, compute and encode account for a
// cache-miss request's handler time and counts the predict_small passes
// a calibrated interval request costs.
func (r *runner) servingLayers(res *result, m *core.TwoLevelModel, genPath string, points [][]float64, bodies [][]byte) error {
	n := len(points)
	res.add("serving.decode_us", us(timeEach(n, 10, func(i int) {
		var req serving.PredictRequest
		dec := json.NewDecoder(bytes.NewReader(bodies[i]))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req) // bodies are generated valid; a failure would show as a wrong answer
	})), "us", n)
	answers := make([]serving.PredictResponse, n)
	for i, p := range points {
		answers[i] = serving.PredictResponse{Model: appName, Version: 1, Results: []serving.ConfigResult{{
			Params: p, Cluster: m.AssignCluster(p), Scales: m.Cfg.LargeScales, Runtimes: m.Predict(p),
		}}}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	res.add("serving.encode_us", us(timeEach(n, 10, func(i int) {
		buf.Reset()
		_ = enc.Encode(&answers[i]) // a PredictResponse always encodes
	})), "us", n)

	// The workload's own point requests, after its warm-up, on a fresh
	// in-process server over the same generation file.
	srv, _, err := inProcessServer(genPath)
	if err != nil {
		return err
	}
	for _, c := range r.in.heldOut {
		body, err := json.Marshal(serving.PredictRequest{Model: appName, Params: c, Interval: coverage})
		if err != nil {
			return err
		}
		serveOnce(srv, "/v1/predict", "page-in", body)
	}
	for _, w := range r.tr.warmup() {
		serveOnce(srv, w.path(), w.id, w.body)
	}
	handlerDurs := make([]time.Duration, n)
	for i := range bodies {
		_, handlerDurs[i] = serveOnce(srv, "/v1/predict", "replay", bodies[i])
	}
	res.add("serving.handler_us", medianDur(handlerDurs, us), "us", n)

	// Additivity and predict_small passes, on configurations no request
	// has asked for (cache misses) and a fresh server. A pass count needs
	// every pass equally warm: each interval configuration is asked once
	// at 0.9 to warm its tree paths, then at 0.8, a cache miss whose
	// passes all run warm, and then one pass is timed alone, just as warm.
	srv, reg, err := inProcessServer(genPath)
	if err != nil {
		return err
	}
	served, ok := reg.Get(appName)
	if !ok {
		return fmt.Errorf("in-process registry has no model %q", appName)
	}
	const k = 200
	fresh := r.in.pool[len(r.in.pool)-2*k:]
	handler := map[string]time.Duration{}
	onePass := map[string]float64{}
	decode, encode := map[string]float64{}, map[string]float64{}
	dst := make([]float64, len(m.Cfg.SmallScales))
	ask := func(id string, pr serving.PredictRequest) (*httptest.ResponseRecorder, []byte, error) {
		body, err := json.Marshal(pr)
		if err != nil {
			return nil, nil, err
		}
		rec, d := serveOnce(srv, "/v1/predict", id, body)
		handler[id] = d
		if rec.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("in-process %s: status %d: %s", id, rec.Code, rec.Body.Bytes())
		}
		return rec, body, nil
	}
	for i := 0; i < k; i++ {
		missID := fmt.Sprintf("miss-%d", i)
		rec, body, err := ask(missID, serving.PredictRequest{Model: appName, Params: fresh[i]})
		if err != nil {
			return err
		}
		t0 := time.Now()
		var req serving.PredictRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		decode[missID] = us(time.Since(t0))
		var resp serving.PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		t0 = time.Now()
		buf.Reset()
		if err := enc.Encode(&resp); err != nil {
			return err
		}
		encode[missID] = us(time.Since(t0))

		cfg := fresh[k+i]
		if _, _, err := ask(fmt.Sprintf("warm-%d", i), serving.PredictRequest{Model: appName, Params: cfg, Interval: coverage}); err != nil {
			return err
		}
		id := fmt.Sprintf("ival-%d", i)
		if _, _, err := ask(id, serving.PredictRequest{Model: appName, Params: cfg, Interval: 0.8}); err != nil {
			return err
		}
		t0 = time.Now()
		served.Model.PredictSmallInto(cfg, dst)
		onePass[id] = us(time.Since(t0))
	}
	var gaps, left, decs, encs, passes []float64
	for _, t := range srv.Tracer().Snapshot(0, false) {
		h, ok := handler[t.ID]
		if !ok {
			continue
		}
		span := map[string]float64{}
		for _, sp := range t.Spans {
			span[sp.Name] += float64(sp.DurNS) / 1e3
		}
		switch t.ID[:4] {
		case "miss":
			u := us(h) - decode[t.ID] - span["compute"] - span["queue_wait"] - encode[t.ID]
			left = append(left, u)
			gaps = append(gaps, 100*u/us(h))
			decs, encs = append(decs, decode[t.ID]), append(encs, encode[t.ID])
		case "ival":
			passes = append(passes, (span["model_eval"]+span["calibration"])/onePass[t.ID])
		}
	}
	gap := median(gaps)
	res.add("serving.additivity_gap_pct", gap, "%", len(gaps))
	res.add("serving.unattributed_us", median(left), "us", len(left))
	res.add("core.interval_predict_small_passes", median(passes), "count", len(passes))
	r.note("additivity: on a cache-miss point request, decode (%.1f µs), the compute span and encode (%.1f µs) leave %.1f µs, %.1f%% of the handler time, unaccounted (tolerance %.0f%%)",
		median(decs), median(encs), median(left), gap, 100*additivityTolerance)
	if math.IsNaN(gap) || math.Abs(gap) > 100*additivityTolerance {
		return fmt.Errorf("additivity: decode, compute and encode leave %.1f%% of the handler time unaccounted, over the %.0f%% tolerance", gap, 100*additivityTolerance)
	}
	return nil
}

func inProcessServer(genPath string) (*serving.Server, *serving.Registry, error) {
	reg := serving.NewRegistry(serving.Source{Name: appName, Path: genPath})
	if err := reg.Reload(); err != nil {
		return nil, nil, err
	}
	return serving.New(reg, serving.Options{CacheSize: serving.DefaultCacheSize, TraceCapacity: 1024}), reg, nil
}

// serveOnce serves one request in process. It returns the recorded
// response and how long ServeHTTP took, building the request excluded.
func serveOnce(srv *serving.Server, path, id string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, id)
	rec := httptest.NewRecorder()
	h := srv.Handler()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

// fitLayers times a full fit and its parts on the pipeline's training
// slice of the history: one scale's forest, the curve-shape k-means and
// the cross-validated multitask lasso over the anchors.
func (r *runner) fitLayers(res *result, m *core.TwoLevelModel) error {
	train, _ := pipeline.SplitHoldout(r.in.history, pipeline.DefaultGateConfig().HoldoutDenominator)
	cfg := core.DefaultConfig()
	t0 := time.Now()
	if _, err := core.Fit(r.stream(300), train, cfg); err != nil {
		return err
	}
	res.add("core.fit_s", time.Since(t0).Seconds(), "s", 1)

	sub := train.FilterScale(cfg.SmallScales[0])
	x, y := sub.XY()
	for i := range y {
		y[i] = math.Log(y[i])
	}
	res.add("forest.fit_ms", ms(timeEach(3, 1, func(int) { forest.Fit(x, y, cfg.Forest, r.stream(301)) })), "ms", 3)

	var feat, targ [][]float64
	for _, c := range train.GroupByConfig() {
		lc, ok := c.Curve(cfg.LargeScales)
		if !ok {
			continue
		}
		feat = append(feat, m.PredictSmall(c.Params))
		targ = append(targ, lc)
	}
	fx, fy := logDense(feat), logDense(targ)
	shapes := cluster.NormalizeCurves(dense(feat))
	res.add("cluster.kmeans_ms", ms(timeEach(3, 1, func(int) { cluster.KMeans(r.stream(302), shapes, cfg.Clusters, cluster.Options{}) })), "ms", 3)
	res.add("linmod.lasso_ms", ms(timeEach(3, 1, func(int) {
		linmod.CVMultiTaskLasso(r.stream(303), fx, fy, cfg.CVFolds, cfg.CVLambdas, cfg.Lasso)
	})), "ms", 3)
	return nil
}

func dense(rows [][]float64) *mat.Dense {
	d := mat.NewDense(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(d.Row(i), row)
	}
	return d
}

func logDense(rows [][]float64) *mat.Dense {
	d := dense(rows)
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			row[j] = math.Log(v)
		}
	}
	return d
}

// pipelineLayers times the pipeline's stages in process on a fresh
// store: appending the history record by record, re-indexing the store,
// and one full cycle (fit, calibrate, gate, promote).
func (r *runner) pipelineLayers(res *result) error {
	dir := filepath.Join(r.env.work, "inproc")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := pipeline.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	appends := make([]time.Duration, 0, r.in.history.Len())
	for _, run := range r.in.history.Runs {
		t0 := time.Now()
		if _, err := st.Append(r.in.names, pipeline.Record{App: appName, Params: run.Params, Scale: run.Scale, Runtime: run.Runtime}); err != nil {
			return err
		}
		appends = append(appends, time.Since(t0))
	}
	res.add("pipeline.append_us", medianDur(appends, us), "us", len(appends))
	var refreshes []time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := st.Refresh(); err != nil {
			return err
		}
		refreshes = append(refreshes, time.Since(t0))
	}
	res.add("pipeline.refresh_ms", medianDur(refreshes, ms), "ms", len(refreshes))
	p, err := pipeline.New(st, filepath.Join(dir, "gens"), pipeline.Config{
		Core: core.DefaultConfig(), Seed: 1,
		Gate: pipeline.GateConfig{HoldoutDenominator: pipeline.DefaultGateConfig().HoldoutDenominator, AllowedRegression: 1},
	}, nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	cyc, err := p.RunOnce(appName, "")
	if err != nil {
		return err
	}
	if !cyc.Promoted {
		return fmt.Errorf("in-process cycle did not promote: %s", cyc.Gate.Reason)
	}
	res.add("pipeline.cycle_s", time.Since(t0).Seconds(), "s", 1)
	return nil
}
