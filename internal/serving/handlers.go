package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/loadctl"
	"repro/internal/obs"
	"repro/internal/uncertainty"
)

// maxBatch bounds one request's configuration count; larger batches get
// a 400 rather than an unbounded amount of work.
const maxBatch = 4096

// maxBodyBytes bounds the request body the server will parse.
const maxBodyBytes = 8 << 20

// Options configures a Server.
type Options struct {
	// CacheSize is the prediction-cache capacity in entries (one entry
	// per configuration × option set × model version); <= 0 disables
	// caching. DefaultCacheSize is used when the field is zero and the
	// options struct itself came from DefaultOptions.
	CacheSize int

	// BatchWorkers bounds the goroutines used to compute one large
	// /v1/predict batch; <= 0 means GOMAXPROCS. Results are always
	// index-ordered regardless of worker count. 1 forces serial batches.
	BatchWorkers int

	// Drift configures the per-model drift monitors fed by /v1/observe;
	// zero fields take uncertainty.DriftConfig's defaults.
	Drift uncertainty.DriftConfig

	// OnDrift, when set, is invoked once per coverage-breach episode per
	// model with the breach diagnosis and the request ID of the
	// /v1/observe call whose observation tipped the coverage — the hook
	// that kicks the retraining pipeline, with origin making the kick
	// traceable end-to-end through the pipeline journal. It runs on the
	// /v1/observe request goroutine.
	OnDrift func(model, reason, origin string)

	// Load configures the admission controller guarding /v1/predict
	// (bounded queue, AIMD concurrency limit, priority shedding,
	// degraded mode); zero fields take loadctl's defaults. Set
	// DisableLoadControl to run without admission control entirely.
	Load               loadctl.Config
	DisableLoadControl bool

	// DefaultDeadline is the per-request deadline budget assumed when a
	// client sends no X-Deadline-Ms header; 0 means unbounded. Requests
	// that cannot be served within their budget are shed with 503 +
	// Retry-After rather than left to time out.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-supplied budgets; 0 selects
	// DefaultMaxDeadline.
	MaxDeadline time.Duration

	// SyntheticDelay adds a fixed artificial service time to every
	// cache-miss computation. Load tests use it to create deterministic
	// saturation without depending on model compute cost; zero (the
	// default) disables it.
	SyntheticDelay time.Duration

	// Obs, when set, is the shared metrics registry the server registers
	// into (cmd/serve passes one so pipeline metrics share the same
	// Prometheus exposition); nil gets a private registry.
	Obs *obs.Registry

	// Tracer, when set, is a shared trace ring; nil (with tracing
	// enabled) gets a private ring of TraceCapacity entries. Tracing is
	// on by default — every request gets an X-Request-Id and a span tree
	// in GET /debug/traces; DisableTracing turns all of it off.
	Tracer         *obs.Tracer
	TraceCapacity  int
	DisableTracing bool
}

// DefaultCacheSize is the prediction-cache capacity used by DefaultOptions.
const DefaultCacheSize = 4096

// DefaultOptions returns the production defaults.
func DefaultOptions() Options { return Options{CacheSize: DefaultCacheSize} }

// Server serves predictions from a Registry over HTTP. Create with New,
// mount via Handler.
type Server struct {
	reg          *Registry
	cache        *Cache
	metrics      *Metrics
	mux          *http.ServeMux
	batchWorkers int
	drift        *uncertainty.MonitorSet

	// load guards /v1/predict (nil = load control disabled); draining
	// flips /healthz to 503 once graceful shutdown begins.
	load            *loadctl.Controller
	defaultDeadline time.Duration
	maxDeadline     time.Duration
	synthDelay      time.Duration
	draining        atomic.Bool

	// tracer records per-request span trees into a bounded ring (nil =
	// tracing disabled); ids mints X-Request-Id values for requests that
	// arrive without one.
	tracer *obs.Tracer
	ids    *obs.IDGen
}

// New builds a Server over a registry.
func New(reg *Registry, opts Options) *Server {
	s := &Server{
		reg:          reg,
		cache:        NewCache(opts.CacheSize),
		metrics:      NewMetrics(opts.Obs),
		mux:          http.NewServeMux(),
		batchWorkers: opts.BatchWorkers,

		defaultDeadline: opts.DefaultDeadline,
		maxDeadline:     opts.MaxDeadline,
		synthDelay:      opts.SyntheticDelay,
	}
	if s.maxDeadline <= 0 {
		s.maxDeadline = DefaultMaxDeadline
	}
	if !opts.DisableLoadControl {
		s.load = loadctl.New(opts.Load)
	}
	if !opts.DisableTracing {
		s.tracer = opts.Tracer
		if s.tracer == nil {
			s.tracer = obs.NewTracer(opts.TraceCapacity)
		}
		s.ids = obs.NewIDGen("")
	}
	s.metrics.registerCollaborators(s.cache, s.reg, s.load)
	s.drift = uncertainty.NewMonitorSet(opts.Drift, func(model, reason, origin string) {
		s.metrics.driftKicks.Inc()
		if opts.OnDrift != nil {
			opts.OnDrift(model, reason, origin)
		}
	})
	s.mux.Handle("POST /v1/predict", s.instrument("predict", s.handlePredict))
	s.mux.Handle("POST /v1/observe", s.instrument("observe", s.handleObserve))
	s.mux.Handle("GET /v1/models", s.instrument("models", s.handleModels))
	s.mux.Handle("GET /v1/loadstatus", s.instrument("loadstatus", s.handleLoadStatus))
	s.mux.Handle("POST /v1/reload", s.instrument("reload", s.handleReload))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	if s.tracer != nil {
		s.mux.Handle("GET /debug/traces", s.tracer.Handler())
	}
	return s
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's metrics accumulator (for embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the prediction cache (for embedding and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Tracer exposes the request-trace ring (nil when tracing is
// disabled), so cmd/serve can mount /debug/traces on the ops listener
// and the pipeline can file its run traces into the same ring.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// ---- request/response types ----

// PredictRequest is the POST /v1/predict body. Provide a single
// configuration in Params or a batch in Configs (or both; Params is
// prepended). Every configuration must have exactly the model's
// parameter count.
type PredictRequest struct {
	// Model selects a registry entry; empty resolves like Registry.Get.
	Model string `json:"model,omitempty"`

	Params  []float64   `json:"params,omitempty"`
	Configs [][]float64 `json:"configs,omitempty"`

	// At predicts at one scale instead of every target scale; must be a
	// target scale in anchored mode (basis mode accepts any scale >= 1).
	At int `json:"at,omitempty"`

	// Interval, when in (0, 1), adds prediction intervals per target
	// scale: values in [0.5, 1) are a coverage level (0.9 → a 90% band,
	// conformal when the model carries calibration), values in (0, 0.5)
	// the legacy tail-quantile form (0.1 ≡ coverage 0.8); see
	// core.NormalizeCoverage. Incompatible with At. The handler rewrites
	// the field to the normalized coverage after validation.
	Interval float64 `json:"interval,omitempty"`

	// Small adds the interpolated small-scale curve to each result.
	Small bool `json:"small,omitempty"`
}

// ConfigResult is one configuration's prediction.
type ConfigResult struct {
	Params    []float64       `json:"params"`
	Cluster   int             `json:"cluster"`
	Scales    []int           `json:"scales"`
	Runtimes  []float64       `json:"runtimes"`
	Small     []float64       `json:"small,omitempty"`
	Intervals []core.Interval `json:"intervals,omitempty"`
	Cached    bool            `json:"cached"`
}

// PredictResponse is the POST /v1/predict reply.
type PredictResponse struct {
	Model   string         `json:"model"`
	Version int            `json:"version"`
	Results []ConfigResult `json:"results"`

	// Degraded marks a response served cache-only while the admission
	// queue was saturated (also signaled via the X-Degraded header).
	Degraded bool `json:"degraded,omitempty"`
}

// ModelInfo is one registry entry's public description.
type ModelInfo struct {
	Name         string    `json:"name"`
	Version      int       `json:"version"`
	Generation   int       `json:"generation,omitempty"`
	Path         string    `json:"path,omitempty"`
	SHA256       string    `json:"sha256,omitempty"`
	LoadedAt     time.Time `json:"loaded_at"`
	Mode         string    `json:"mode"`
	Params       []string  `json:"params"`
	SmallScales  []int     `json:"small_scales"`
	LargeScales  []int     `json:"large_scales"`
	Clusters     int       `json:"clusters"`
	TrainConfigs int       `json:"train_configs"`
	Anchors      int       `json:"anchors"`

	// Calibrated reports whether the generation carries split-conformal
	// calibration (interval requests answer with a coverage guarantee);
	// CalibrationSamples is its total holdout residual count.
	Calibrated         bool `json:"calibrated"`
	CalibrationSamples int  `json:"calibration_samples,omitempty"`
}

func modelInfo(e *Entry) ModelInfo {
	m := e.Model
	_, calSamples := m.Meta.Calibration.Samples()
	return ModelInfo{
		Name:         e.Name,
		Version:      e.Version,
		Generation:   e.Generation,
		Path:         e.Path,
		SHA256:       e.SHA256,
		LoadedAt:     e.LoadedAt,
		Mode:         string(m.Mode()),
		Params:       m.ParamNames,
		SmallScales:  m.Cfg.SmallScales,
		LargeScales:  m.Cfg.LargeScales,
		Clusters:     m.Clusters(),
		TrainConfigs: m.TrainConfigs,
		Anchors:      m.Anchors,

		Calibrated:         m.Meta.Calibration != nil,
		CalibrationSamples: calSamples,
	}
}

// ---- handlers ----

// predictReqPool recycles request objects so steady-state decoding
// reuses the param/config slice capacity instead of regrowing it from
// nothing on every request. Decoded slices are only valid until the
// request returns; anything cached is copied (see computeResult).
var predictReqPool = sync.Pool{New: func() any { return new(PredictRequest) }}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, rt *obs.ReqTrace) {
	req := predictReqPool.Get().(*PredictRequest)
	defer func() {
		*req = PredictRequest{Params: req.Params[:0], Configs: req.Configs[:0]}
		predictReqPool.Put(req)
	}()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}

	entry, ok := s.reg.Get(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("model %q not loaded", orDefault(req.Model)))
		return
	}

	configs := req.Configs
	var one [1][]float64
	if len(req.Params) > 0 {
		if len(configs) == 0 {
			one[0] = req.Params // single-config fast path: no slice allocation
			configs = one[:]
		} else {
			configs = append([][]float64{req.Params}, configs...)
		}
	}
	switch {
	case len(configs) == 0:
		writeError(w, http.StatusBadRequest, "provide params or configs")
		return
	case len(configs) > maxBatch:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", len(configs), maxBatch))
		return
	case req.At != 0 && req.At < 1:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("at=%d must be >= 1", req.At))
		return
	}
	if req.Interval != 0 {
		if req.At != 0 {
			writeError(w, http.StatusBadRequest, "interval is incompatible with at; request all target scales")
			return
		}
		cov, err := core.NormalizeCoverage(req.Interval)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Rewrite to the normalized coverage so the cache key and the
		// model call see one canonical form (0.1 and 0.8 hit one entry).
		req.Interval = cov
		s.metrics.intervalRequests.Add(1)
	}
	want := len(entry.Model.ParamNames)
	for i, cfg := range configs {
		if len(cfg) != want {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"configuration %d has %d values, model %q expects %d (%v)",
				i, len(cfg), entry.Name, want, entry.Model.ParamNames))
			return
		}
	}

	class := classify(req, len(configs))
	budget, ok := s.requestBudget(r)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid %s header", DeadlineHeader))
		return
	}

	// The budget bounds the whole request: queue wait plus compute. The
	// timeout context is only created when a budget exists, keeping the
	// no-deadline cache-hit fast path allocation-free.
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	if s.load != nil {
		if s.load.Degraded() {
			// Saturated: answer from cache alone or shed — never queue.
			if s.serveDegraded(w, entry, req, configs) {
				s.load.NoteDegraded(class, true)
				return
			}
			s.load.NoteDegraded(class, false)
			writeShed(w, &loadctl.ShedError{Reason: loadctl.ShedDegraded, Class: class, RetryAfter: s.load.RetryAfter()})
			return
		}
		wtr, shed := s.load.Acquire(class, budget)
		if shed != nil {
			writeShed(w, shed)
			return
		}
		if wtr != nil {
			qs := rt.StartSpan()
			err := wtr.Wait(ctx)
			rt.EndSpan("queue_wait", qs)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					writeShed(w, &loadctl.ShedError{Reason: loadctl.ShedTimeout, Class: class, RetryAfter: s.load.RetryAfter()})
				}
				// Canceled: the client went away; nothing useful to write.
				return
			}
		}
		// Observed service time (slot grant to completion) feeds the AIMD
		// limit; queue wait is deliberately excluded so a deep queue does
		// not read as slow service and collapse the limit.
		svcStart := time.Now()
		defer func() { s.load.Release(time.Since(svcStart)) }()
	}

	// Fine-grained cache/model/calibration spans only make sense for a
	// single-configuration request; a batch gets one compute span (a
	// 4096-config batch would otherwise flood the trace ring).
	spanRT := rt
	if len(configs) != 1 {
		spanRT = nil
	}
	cs := rt.StartSpan()
	resp := PredictResponse{Model: entry.Name, Version: entry.Version, Results: make([]ConfigResult, len(configs))}
	err := s.computeBatch(ctx, entry, req, configs, resp.Results, spanRT)
	rt.EndSpan("compute", cs)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			if s.load != nil {
				s.load.NoteTimeout(class)
			}
			writeShed(w, &loadctl.ShedError{Reason: loadctl.ShedTimeout, Class: class, RetryAfter: s.retryAfter()})
		case errors.Is(err, context.Canceled):
			// Client went away mid-compute; nothing useful to write.
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// retryAfter returns the controller's backoff hint, or a fixed 1s when
// load control is disabled.
func (s *Server) retryAfter() time.Duration {
	if s.load != nil {
		return s.load.RetryAfter()
	}
	return time.Second
}

// minParallelBatch is the batch size below which fan-out overhead beats
// any parallel win and batches run serially.
const minParallelBatch = 64

// computeBatch fills out[i] with configs[i]'s prediction, through the
// cache. Large batches fan out over bounded workers on contiguous index
// chunks; output order is index order either way, and on failure the
// lowest-index error is returned (each chunk stops at its first error,
// which is its lowest, so the minimum over chunks is the global one) —
// the response is identical to a serial run regardless of worker count.
func (s *Server) computeBatch(ctx context.Context, entry *Entry, req *PredictRequest, configs [][]float64, out []ConfigResult, rt *obs.ReqTrace) error {
	workers := s.batchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(configs) < minParallelBatch || workers == 1 {
		var kb [128]byte
		_, err := s.computeRange(ctx, entry, req, configs, out, 0, len(configs), kb[:0], rt)
		return err
	}
	chunk := (len(configs) + workers - 1) / workers
	var wg sync.WaitGroup
	var mu sync.Mutex
	errIdx := -1
	var firstErr error
	for lo := 0; lo < len(configs); lo += chunk {
		hi := lo + chunk
		if hi > len(configs) {
			hi = len(configs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if i, err := s.computeRange(ctx, entry, req, configs, out, lo, hi, make([]byte, 0, 128), nil); err != nil {
				mu.Lock()
				if errIdx < 0 || i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	return firstErr
}

// computeRange computes configs[lo:hi] into out, reusing kb as the cache
// key buffer. It stops at the first error, returning its index. rt is
// non-nil only for single-configuration requests, which get
// cache_lookup / model_eval / calibration spans.
func (s *Server) computeRange(ctx context.Context, entry *Entry, req *PredictRequest, configs [][]float64, out []ConfigResult, lo, hi int, kb []byte, rt *obs.ReqTrace) (int, error) {
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		cfg := configs[i]
		kb = appendPredictKey(kb[:0], entry, req, cfg)
		ls := rt.StartSpan()
		v, hit, err := s.cache.DoBytes(ctx, kb, func() (any, error) {
			if s.synthDelay > 0 {
				time.Sleep(s.synthDelay)
			}
			return computeResult(entry.Model, req, cfg, rt)
		})
		rt.EndSpan("cache_lookup", ls)
		if err != nil {
			return i, err
		}
		res := *v.(*ConfigResult) // shallow copy; cached inner slices are never mutated
		res.Cached = hit
		out[i] = res
		s.metrics.predictions.Inc()
	}
	return -1, nil
}

// computeResult runs the actual model for one configuration: one
// Evaluate (the model_eval span), then the bands at the requested
// coverage (the calibration span). cfg is copied: the result outlives
// the request in the cache, while cfg's backing array belongs to the
// pooled request object.
func computeResult(m *core.TwoLevelModel, req *PredictRequest, cfg []float64, rt *obs.ReqTrace) (*ConfigResult, error) {
	es := rt.StartSpan()
	// Interval is a normalized coverage by here (see handlePredict), 0
	// when no band was asked for.
	ev := m.Evaluate(cfg, req.Interval)
	res := &ConfigResult{
		Params:   append([]float64(nil), cfg...),
		Cluster:  ev.Cluster,
		Scales:   m.Cfg.LargeScales,
		Runtimes: ev.Runtimes,
	}
	if req.Small {
		res.Small = ev.Small
	}
	if req.At > 0 {
		v, err := m.PredictAt(&ev, req.At)
		if err != nil {
			return nil, err
		}
		res.Scales = []int{req.At}
		res.Runtimes = []float64{v}
	}
	rt.EndSpan("model_eval", es)
	if req.Interval > 0 {
		is := rt.StartSpan()
		res.Intervals = m.Intervals(&ev)
		rt.EndSpan("calibration", is)
	}
	return res, nil
}

// appendPredictKey appends the cache key for one configuration to dst
// and returns it, so a reused buffer makes key construction
// allocation-free. The model version is part of the key, so a hot-swap
// invalidates by construction.
func appendPredictKey(dst []byte, e *Entry, req *PredictRequest, cfg []float64) []byte {
	dst = append(dst, e.Name...)
	dst = append(dst, '@')
	dst = strconv.AppendInt(dst, int64(e.Version), 10)
	dst = append(dst, "|at="...)
	dst = strconv.AppendInt(dst, int64(req.At), 10)
	dst = append(dst, "|q="...)
	dst = strconv.AppendFloat(dst, req.Interval, 'g', -1, 64)
	if req.Small {
		dst = append(dst, "|s"...)
	}
	dst = append(dst, '|')
	for i, v := range cfg {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return dst
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request, _ *obs.ReqTrace) {
	entries := s.reg.List()
	infos := make([]ModelInfo, len(entries))
	for i, e := range entries {
		infos[i] = modelInfo(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request, _ *obs.ReqTrace) {
	err := s.reg.Reload()
	entries := s.reg.List()
	infos := make([]ModelInfo, len(entries))
	for i, e := range entries {
		infos[i] = modelInfo(e)
	}
	body := map[string]any{"models": infos}
	status := http.StatusOK
	if err != nil {
		body["error"] = err.Error()
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ *obs.ReqTrace) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if s.reg.Len() == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no models loaded"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": s.reg.Len()})
}

// handleMetrics serves the metrics document with content negotiation:
// the historical JSON shape by default, the Prometheus text exposition
// (format 0.0.4) when the Accept header asks for text/plain or
// openmetrics — both rendered from the same registry state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ *obs.ReqTrace) {
	if wantsPromText(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A write error means the scraper went away mid-reply; the status
		// line is committed, so there is nothing left to do.
		_ = s.metrics.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.cache, s.reg, s.drift, s.load))
}

// wantsPromText decides the /metrics representation from an Accept
// header: the first recognized media type wins (q-values are ignored —
// scrapers list their preferred type first), and the default for an
// absent or wildcard-only header stays JSON for backward
// compatibility.
func wantsPromText(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case "application/json", "application/*":
			return false
		case "text/plain", "text/*", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// ---- plumbing ----

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrumented is a handler that also receives the request's trace
// (nil when tracing is disabled) — passed as an argument rather than
// through context.WithValue so the hot path does not pay two context
// allocations per request.
type instrumented func(http.ResponseWriter, *http.Request, *obs.ReqTrace)

// instrument wraps a handler with panic recovery, per-endpoint
// request/error/latency accounting, and request tracing: an inbound
// X-Request-Id is adopted (and echoed), otherwise one is minted, and
// the finished span tree lands in the trace ring keyed by that ID.
func (s *Server) instrument(name string, h instrumented) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var rt *obs.ReqTrace
		if s.tracer != nil {
			id := r.Header.Get(obs.RequestIDHeader)
			if id == "" {
				id = s.ids.Next()
			}
			w.Header().Set(obs.RequestIDHeader, id)
			rt = s.tracer.StartRequest("request", name, id)
		} else if id := r.Header.Get(obs.RequestIDHeader); id != "" {
			w.Header().Set(obs.RequestIDHeader, id)
		}
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Inc()
				sr.status = http.StatusInternalServerError
				writeError(sr, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
			s.metrics.record(name, sr.status, time.Since(start))
			rt.Finish(sr.status)
		}()
		h(sr, r, rt)
	})
}

// jsonWriter pairs a reusable encode buffer with an encoder bound to it,
// pooled so the steady-state response path allocates neither.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriterPool = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	return jw
}}

func writeJSON(w http.ResponseWriter, status int, v any) {
	jw := jsonWriterPool.Get().(*jsonWriter)
	jw.buf.Reset()
	if err := jw.enc.Encode(v); err != nil {
		// Only possible for unencodable values, which would be a bug in
		// the response types; nothing has been written yet, so say so.
		jsonWriterPool.Put(jw)
		http.Error(w, fmt.Sprintf(`{"error":"encoding response: %v"}`, err), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(jw.buf.Len()))
	w.WriteHeader(status)
	// A failed response write means the client went away mid-reply; the
	// status line is already committed, so there is nothing left to do.
	_, _ = w.Write(jw.buf.Bytes())
	jsonWriterPool.Put(jw)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func orDefault(name string) string {
	if name == "" {
		return "default"
	}
	return name
}
