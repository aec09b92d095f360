package serving

import (
	"io"
	"time"

	"repro/internal/loadctl"
	"repro/internal/obs"
	"repro/internal/uncertainty"
)

// latencyBucketsMS are the upper bounds (milliseconds) of the fixed
// latency histogram; an implicit +Inf bucket catches the overflow.
var latencyBucketsMS = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000,
}

// latencyBounds converts the bucket bounds to the Durations the obs
// registry works in.
func latencyBounds() []time.Duration {
	out := make([]time.Duration, len(latencyBucketsMS))
	for i, ms := range latencyBucketsMS {
		out[i] = time.Duration(ms * float64(time.Millisecond))
	}
	return out
}

// HistogramBucket and HistogramSnapshot are the obs registry's JSON
// histogram views; the aliases keep the /metrics JSON types where
// consumers of this package have always found them. The +Inf bucket is
// marked by the explicit "+Inf" bound (obs.BucketBound), not the old
// ambiguous 0 sentinel.
type (
	HistogramBucket   = obs.HistogramBucket
	HistogramSnapshot = obs.HistogramSnapshot
)

// endpointStats holds one route's registry handles.
type endpointStats struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// Metrics is the server's view of the central obs registry: counters,
// gauges, and histograms are registered once at construction and the
// returned atomic handles are the only thing the request path touches,
// so recording stays lock-free and zero-alloc. The same registry
// renders the Prometheus exposition, so the JSON document and the
// text exposition always agree.
type Metrics struct {
	start            time.Time
	reg              *obs.Registry
	endpoints        map[string]*endpointStats
	predictions      *obs.Counter // configurations predicted (batch-aware)
	panics           *obs.Counter
	intervalRequests *obs.Counter // /v1/predict requests asking for intervals
	observations     *obs.Counter // runtimes ingested via /v1/observe (batch-aware)
	driftKicks       *obs.Counter // coverage-breach episodes that kicked retraining
}

// metricEndpoints are the route labels instrumented by the server.
var metricEndpoints = []string{"predict", "observe", "models", "loadstatus", "reload", "healthz", "metrics", "other"}

// NewMetrics creates a metrics accumulator on reg; a nil reg gets a
// private registry (the common case — cmd/serve passes a shared one so
// pipeline metrics land in the same exposition).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry("repro")
	}
	m := &Metrics{start: time.Now(), reg: reg, endpoints: make(map[string]*endpointStats, len(metricEndpoints))}
	bounds := latencyBounds()
	for _, name := range metricEndpoints {
		m.endpoints[name] = &endpointStats{
			requests: reg.Counter("http_requests_total", "HTTP requests by endpoint", obs.L("endpoint", name)),
			errors:   reg.Counter("http_request_errors_total", "HTTP responses with status >= 400 by endpoint", obs.L("endpoint", name)),
			latency:  reg.Histogram("http_request_duration_seconds", "HTTP request latency by endpoint", bounds, obs.L("endpoint", name)),
		}
	}
	m.predictions = reg.Counter("predictions_total", "configurations predicted, counting each batch entry")
	m.panics = reg.Counter("panics_total", "handler panics recovered and answered with a 500")
	m.intervalRequests = reg.Counter("interval_requests_total", "predict requests asking for prediction intervals")
	m.observations = reg.Counter("observations_total", "measured runtimes ingested via /v1/observe, counting each batch entry")
	m.driftKicks = reg.Counter("drift_kicks_total", "coverage-breach episodes that kicked retraining")
	reg.GaugeFunc("uptime_seconds", "seconds since server start", func() float64 {
		return time.Since(m.start).Seconds()
	})
	return m
}

// Registry exposes the underlying obs registry (for embedding more
// collectors and for the Prometheus exposition).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// WritePrometheus renders the registry in Prometheus text exposition
// format (served on GET /metrics via content negotiation).
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }

// record accumulates one finished request.
func (m *Metrics) record(endpoint string, status int, d time.Duration) {
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

// registerCollaborators bridges collaborator-owned counters (cache,
// registry, admission controller) into the Prometheus exposition as
// sampled-at-scrape functions; the collaborators keep their own
// atomics and the JSON document keeps reading them directly.
func (m *Metrics) registerCollaborators(cache *Cache, reg *Registry, load *loadctl.Controller) {
	r := m.reg
	if cache != nil {
		r.CounterFunc("cache_hits_total", "prediction cache hits", func() float64 { return float64(cache.Stats().Hits) })
		r.CounterFunc("cache_misses_total", "prediction cache misses", func() float64 { return float64(cache.Stats().Misses) })
		r.CounterFunc("cache_coalesced_total", "lookups coalesced into an in-flight computation", func() float64 { return float64(cache.Stats().Coalesced) })
		r.CounterFunc("cache_evictions_total", "LRU evictions", func() float64 { return float64(cache.Stats().Evictions) })
		r.GaugeFunc("cache_entries", "live prediction cache entries", func() float64 { return float64(cache.Stats().Size) })
	}
	if reg != nil {
		r.GaugeFunc("models", "models installed in the registry", func() float64 { return float64(reg.Len()) })
		r.CounterFunc("model_reloads_total", "registry reloads", func() float64 { return float64(reg.Reloads()) })
		r.CounterFunc("pipeline_promotions_total", "model generations promoted into serving", func() float64 {
			p, _, _ := reg.PromotionCounts()
			return float64(p)
		})
		r.CounterFunc("pipeline_rejections_total", "candidate generations rejected by the gate", func() float64 {
			_, rej, _ := reg.PromotionCounts()
			return float64(rej)
		})
		r.CounterFunc("pipeline_rollbacks_total", "generation rollbacks", func() float64 {
			_, _, rb := reg.PromotionCounts()
			return float64(rb)
		})
	}
	if load != nil {
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
}

// EndpointSnapshot is the JSON view of one route's counters.
type EndpointSnapshot struct {
	Requests int64             `json:"requests"`
	Errors   int64             `json:"errors"`
	Latency  HistogramSnapshot `json:"latency"`
}

// ModelStatus is one model's identity line in the metrics document:
// enough for an operator to see which pipeline generation is serving.
type ModelStatus struct {
	Name       string `json:"name"`
	Version    int    `json:"version"`
	Generation int    `json:"generation,omitempty"`
}

// PipelineSnapshot summarizes training-pipeline activity as observed
// through the registry's promotion hook and reloads.
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

// Snapshot captures every counter; cache, registry, drift-monitor, and
// admission-controller state are sampled from the collaborators so the
// document is assembled in one place. drift and load may be nil.
func (m *Metrics) Snapshot(cache *Cache, reg *Registry, drift *uncertainty.MonitorSet, load *loadctl.Controller) Snapshot {
	s := Snapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		PredictionsTotal: m.predictions.Load(),
		PanicsTotal:      m.panics.Load(),
		Endpoints:        make(map[string]EndpointSnapshot, len(m.endpoints)),
	}
	for name, es := range m.endpoints {
		req, errs := es.requests.Load(), es.errors.Load()
		if req == 0 {
			continue // keep the document small; absent = zero
		}
		s.RequestsTotal += req
		s.ErrorsTotal += errs
		s.Endpoints[name] = EndpointSnapshot{Requests: req, Errors: errs, Latency: es.latency.Snapshot()}
	}
	if cache != nil {
		s.Cache = cache.Stats()
	}
	if reg != nil {
		s.ReloadsTotal = reg.Reloads()
		s.Models = reg.Len()
		s.LastReload = reg.LastReload()
		for _, e := range reg.List() {
			s.ModelStatus = append(s.ModelStatus, ModelStatus{
				Name: e.Name, Version: e.Version, Generation: e.Generation,
			})
		}
		promoted, rejected, rollbacks := reg.PromotionCounts()
		if last := reg.LastPromotion(); last != nil || promoted+rejected+rollbacks > 0 {
			s.Pipeline = &PipelineSnapshot{
				Promotions: promoted, Rejections: rejected, Rollbacks: rollbacks,
				LastPromotion: last,
			}
		}
	}
	u := UncertaintySnapshot{
		IntervalRequests: m.intervalRequests.Load(),
		Observations:     m.observations.Load(),
		DriftKicks:       m.driftKicks.Load(),
	}
	if drift != nil {
		u.Monitors = drift.Snapshot()
	}
	if u.IntervalRequests+u.Observations+u.DriftKicks > 0 || len(u.Monitors) > 0 {
		s.Uncertainty = &u
	}
	if load != nil {
		snap := load.Snapshot()
		s.Load = &snap
	}
	return s
}
