package serving

import (
	"time"

	"repro/internal/loadctl"
	"repro/internal/obs"
	"repro/internal/uncertainty"
)

// latencyBounds are the upper bounds of the fixed latency histogram; an
// implicit +Inf bucket catches the overflow.
var latencyBounds = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond, 10 * time.Millisecond,
	25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second,
}

// endpointStats holds one route's registry handles.
type endpointStats struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// metrics holds the server's handles into the obs registry: registered
// once at construction, they are the only thing the request path
// touches, so recording stays lock-free and zero-alloc. The /metrics
// JSON document (Server.snapshot) and the Prometheus text both read
// these handles, so the two renderings cannot disagree.
type metrics struct {
	start            time.Time
	endpoints        map[string]*endpointStats
	predictions      *obs.Counter // configurations predicted (batch-aware)
	panics           *obs.Counter
	intervalRequests *obs.Counter // /v1/predict requests asking for intervals
	observations     *obs.Counter // runtimes ingested via /v1/observe (batch-aware)
	driftKicks       *obs.Counter // coverage-breach episodes that kicked retraining

	// Pipeline outcomes: internal/pipeline increments these same
	// pipeline_cycles_total series when it shares the registry.
	promotions, rejections, rollbacks *obs.Counter
}

// metricEndpoints are the route labels instrumented by the server.
var metricEndpoints = []string{"predict", "observe", "models", "loadstatus", "reload", "healthz", "metrics", "other"}

// newMetrics registers the server's series on reg.
func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{start: time.Now(), endpoints: make(map[string]*endpointStats, len(metricEndpoints))}
	for _, name := range metricEndpoints {
		m.endpoints[name] = &endpointStats{
			requests: reg.Counter("http_requests_total", "HTTP requests by endpoint", obs.L("endpoint", name)),
			errors:   reg.Counter("http_request_errors_total", "HTTP responses with status >= 400 by endpoint", obs.L("endpoint", name)),
			latency:  reg.Histogram("http_request_duration_seconds", "HTTP request latency by endpoint", latencyBounds, obs.L("endpoint", name)),
		}
	}
	m.predictions = reg.Counter("predictions_total", "configurations predicted, counting each batch entry")
	m.panics = reg.Counter("panics_total", "handler panics recovered and answered with a 500")
	m.intervalRequests = reg.Counter("interval_requests_total", "predict requests asking for prediction intervals")
	m.observations = reg.Counter("observations_total", "measured runtimes ingested via /v1/observe, counting each batch entry")
	m.driftKicks = reg.Counter("drift_kicks_total", "coverage-breach episodes that kicked retraining")
	m.promotions = PipelineCycles(reg, PromotionPromoted)
	m.rejections = PipelineCycles(reg, PromotionRejected)
	m.rollbacks = PipelineCycles(reg, PromotionRollback)
	reg.GaugeFunc("uptime_seconds", "seconds since server start", func() float64 {
		return time.Since(m.start).Seconds()
	})
	return m
}

// PipelineCycles returns the pipeline_cycles_total series for one
// outcome on reg. internal/pipeline counts every decision through it,
// and the server reads the same handles for the /metrics JSON pipeline
// block (registration is idempotent), so each outcome has one counter.
func PipelineCycles(reg *obs.Registry, outcome string) *obs.Counter {
	return reg.Counter("pipeline_cycles_total", "Training cycles and rollbacks, by outcome.", obs.L("event", outcome))
}

// record accumulates one finished request.
func (m *metrics) record(endpoint string, status int, d time.Duration) {
	es, ok := m.endpoints[endpoint]
	if !ok {
		es = m.endpoints["other"]
	}
	es.requests.Inc()
	if status >= 400 {
		es.errors.Inc()
	}
	es.latency.Observe(d)
}

// registerSampled exposes the state that stays owned by its package as
// series sampled at scrape time:
//   - the registry's model count and reload counter: NewRegistry takes
//     no obs registry (a registry exists before, and apart from, any
//     server);
//   - the admission controller's gauges and counters: they change
//     together under the controller's mutex, Admitted is decremented
//     when a queued waiter hands its granted slot back (an obs.Counter
//     only grows), and /v1/loadstatus needs them as one consistent
//     Snapshot.
func registerSampled(r *obs.Registry, reg *Registry, load *loadctl.Controller) {
	r.GaugeFunc("models", "models installed in the registry", func() float64 { return float64(reg.Len()) })
	r.CounterFunc("model_reloads_total", "registry reloads", func() float64 { return float64(reg.Reloads()) })
	if load == nil {
		return
	}
	r.GaugeFunc("load_limit", "admission concurrency limit", func() float64 { return load.Snapshot().Limit })
	r.GaugeFunc("load_in_flight", "requests holding an admission slot", func() float64 { return float64(load.Snapshot().InFlight) })
	r.GaugeFunc("load_queued", "requests waiting in the admission queue", func() float64 { return float64(load.Snapshot().Queued) })
	r.GaugeFunc("load_degraded", "1 while the server is in degraded cache-only mode", func() float64 {
		if load.Snapshot().Degraded {
			return 1
		}
		return 0
	})
	r.CounterFunc("load_admitted_total", "requests granted an admission slot", func() float64 { return float64(load.Snapshot().Admitted.Total()) })
	r.CounterFunc("load_completed_total", "admitted requests completed", func() float64 { return float64(load.Snapshot().Completed) })
	r.CounterFunc("load_shed_total", "requests shed (queue full, budget, degraded, or timeout)", func() float64 { return float64(load.Snapshot().ShedTotal()) })
	r.CounterFunc("load_degraded_served_total", "cache-only responses served while degraded", func() float64 { return float64(load.Snapshot().DegradedServed) })
	r.GaugeFunc("load_ewma_latency_seconds", "EWMA service-latency estimate", func() float64 { return load.Snapshot().EWMALatencyMS / 1e3 })
}

// EndpointSnapshot is the JSON view of one route's counters.
type EndpointSnapshot struct {
	Requests int64                 `json:"requests"`
	Errors   int64                 `json:"errors"`
	Latency  obs.HistogramSnapshot `json:"latency"`
}

// ModelStatus is one model's identity line in the metrics document:
// enough for an operator to see which pipeline generation is serving.
type ModelStatus struct {
	Name       string `json:"name"`
	Version    int    `json:"version"`
	Generation int    `json:"generation,omitempty"`
}

// PipelineSnapshot summarizes training-pipeline activity: the
// pipeline_cycles_total counts and the last event seen by the
// registry's promotion hook.
type PipelineSnapshot struct {
	Promotions    int64            `json:"promotions"`
	Rejections    int64            `json:"rejections"`
	Rollbacks     int64            `json:"rollbacks"`
	LastPromotion *PromotionStatus `json:"last_promotion,omitempty"`
}

// UncertaintySnapshot summarizes interval serving and drift monitoring:
// how many predictions carried bands, how many measured runtimes came
// back, how often coverage breached, and each model's rolling per-scale
// coverage/MAPE windows.
type UncertaintySnapshot struct {
	IntervalRequests int64                         `json:"interval_requests"`
	Observations     int64                         `json:"observations"`
	DriftKicks       int64                         `json:"drift_kicks"`
	Monitors         []uncertainty.MonitorSnapshot `json:"monitors,omitempty"`
}

// Snapshot is the JSON document served on /metrics.
type Snapshot struct {
	UptimeSeconds    float64                     `json:"uptime_seconds"`
	RequestsTotal    int64                       `json:"requests_total"`
	ErrorsTotal      int64                       `json:"errors_total"`
	PredictionsTotal int64                       `json:"predictions_total"`
	PanicsTotal      int64                       `json:"panics_total"`
	ReloadsTotal     int64                       `json:"reloads_total"`
	Models           int                         `json:"models"`
	ModelStatus      []ModelStatus               `json:"model_status,omitempty"`
	LastReload       *ReloadStatus               `json:"last_reload,omitempty"`
	Pipeline         *PipelineSnapshot           `json:"pipeline,omitempty"`
	Uncertainty      *UncertaintySnapshot        `json:"uncertainty,omitempty"`
	Cache            CacheStats                  `json:"cache"`
	Load             *loadctl.Snapshot           `json:"load,omitempty"`
	Endpoints        map[string]EndpointSnapshot `json:"endpoints"`
}

// snapshot assembles the /metrics JSON document from the registry
// handles and the registry, drift-monitor and admission state.
func (s *Server) snapshot() Snapshot {
	m := s.metrics
	snap := Snapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		PredictionsTotal: m.predictions.Load(),
		PanicsTotal:      m.panics.Load(),
		ReloadsTotal:     s.reg.Reloads(),
		Models:           s.reg.Len(),
		LastReload:       s.reg.LastReload(),
		Cache:            s.cache.Stats(),
		Endpoints:        make(map[string]EndpointSnapshot, len(m.endpoints)),
	}
	for name, es := range m.endpoints {
		req, errs := es.requests.Load(), es.errors.Load()
		if req == 0 {
			continue // keep the document small; absent = zero
		}
		snap.RequestsTotal += req
		snap.ErrorsTotal += errs
		snap.Endpoints[name] = EndpointSnapshot{Requests: req, Errors: errs, Latency: es.latency.Snapshot()}
	}
	for _, e := range s.reg.List() {
		snap.ModelStatus = append(snap.ModelStatus, ModelStatus{
			Name: e.Name, Version: e.Version, Generation: e.Generation,
		})
	}
	p := PipelineSnapshot{
		Promotions:    m.promotions.Load(),
		Rejections:    m.rejections.Load(),
		Rollbacks:     m.rollbacks.Load(),
		LastPromotion: s.reg.LastPromotion(),
	}
	if p.LastPromotion != nil || p.Promotions+p.Rejections+p.Rollbacks > 0 {
		snap.Pipeline = &p
	}
	u := UncertaintySnapshot{
		IntervalRequests: m.intervalRequests.Load(),
		Observations:     m.observations.Load(),
		DriftKicks:       m.driftKicks.Load(),
		Monitors:         s.drift.Snapshot(),
	}
	if u.IntervalRequests+u.Observations+u.DriftKicks > 0 || len(u.Monitors) > 0 {
		snap.Uncertainty = &u
	}
	if s.load != nil {
		ls := s.load.Snapshot()
		snap.Load = &ls
	}
	return snap
}
