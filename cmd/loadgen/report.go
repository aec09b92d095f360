package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serving"
)

// LatencyStats summarizes one latency population (milliseconds).
type LatencyStats struct {
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// ClassOutcome is one priority class's request accounting.
type ClassOutcome struct {
	Sent     int `json:"sent"`
	Accepted int `json:"accepted"` // HTTP 200
	Shed     int `json:"shed"`     // HTTP 503
	Errors   int `json:"errors"`   // transport failures and non-200/503 statuses
}

// Report is the JSON document loadgen emits: enough to compare runs
// (same seed → same workload) and to check the shedding contract (every
// 503 carries Retry-After; accepted latency stays bounded).
type Report struct {
	Mode            string  `json:"mode"`
	Seed            uint64  `json:"seed"`
	Requests        int     `json:"requests"`
	DurationSeconds float64 `json:"duration_seconds"`

	// Throughput counts accepted (200) responses per second.
	Throughput float64 `json:"throughput_rps"`

	Accepted          int `json:"accepted"`
	Shed              int `json:"shed"`
	Errors            int `json:"errors"`
	Truncated         int `json:"truncated"` // accepted responses cut off mid-body; must be 0
	Degraded          int `json:"degraded_responses"`
	MissingRetryAfter int `json:"missing_retry_after"` // 503s without the header; must be 0

	ByClass map[string]*ClassOutcome `json:"by_class"`

	// AcceptedLatency covers 200s only; ShedLatency covers 503s (sheds
	// must be fast — a slow rejection is still an outage).
	AcceptedLatency LatencyStats `json:"accepted_latency"`
	ShedLatency     LatencyStats `json:"shed_latency"`

	// Server is the server-side view of the same run: the /metrics JSON
	// document scraped immediately before and after, reported as deltas.
	// nil when either scrape failed (the client-side report stands alone).
	Server *ServerSection `json:"server,omitempty"`
}

// ServerSection holds server-side deltas over the run, from the
// serving /metrics JSON document. Client and server accounts of the
// same run must reconcile: predict_requests matches the requests the
// engine sent, predict_errors its 503s (absent other failures), and
// the latency histogram delta counts every one of them.
type ServerSection struct {
	PredictRequests int64 `json:"predict_requests"`
	PredictErrors   int64 `json:"predict_errors"`
	// PredictLatency is the after-minus-before histogram for the predict
	// endpoint (counts over the fixed millisecond buckets, "+Inf" last).
	PredictLatency obs.HistogramSnapshot `json:"predict_latency"`

	PredictionsTotal int64 `json:"predictions_total"` // configurations, counting batch entries
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`

	// Shed and DegradedServed come from the admission controller; 0 when
	// the server runs with load control disabled.
	Shed           int64 `json:"shed"`
	DegradedServed int64 `json:"degraded_served"`
}

// scrapeMetrics fetches the serving /metrics JSON document. The Accept
// header pins JSON explicitly so the scrape is immune to the endpoint's
// content negotiation growing new defaults.
func scrapeMetrics(client *http.Client, base string) (*serving.Snapshot, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var snap serving.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("GET /metrics: decoding: %w", err)
	}
	return &snap, nil
}

// serverSection computes the before/after delta. Either snapshot nil
// (a scrape failed) yields nil — a partial delta would be misleading.
func serverSection(before, after *serving.Snapshot) *ServerSection {
	if before == nil || after == nil {
		return nil
	}
	bp, ap := before.Endpoints["predict"], after.Endpoints["predict"]
	sec := &ServerSection{
		PredictRequests:  ap.Requests - bp.Requests,
		PredictErrors:    ap.Errors - bp.Errors,
		PredictLatency:   ap.Latency.Sub(bp.Latency),
		PredictionsTotal: after.PredictionsTotal - before.PredictionsTotal,
		CacheHits:        after.Cache.Hits - before.Cache.Hits,
		CacheMisses:      after.Cache.Misses - before.Cache.Misses,
	}
	if before.Load != nil && after.Load != nil {
		sec.Shed = after.Load.ShedTotal() - before.Load.ShedTotal()
		sec.DegradedServed = after.Load.DegradedServed - before.Load.DegradedServed
	}
	return sec
}

// buildReport aggregates raw outcomes.
func buildReport(opts Options, outcomes []outcome, elapsed time.Duration) *Report {
	rep := &Report{
		Mode:            opts.Mode,
		Seed:            opts.Seed,
		Requests:        len(outcomes),
		DurationSeconds: elapsed.Seconds(),
		ByClass: map[string]*ClassOutcome{
			"point": {}, "interval": {}, "batch": {},
		},
	}
	var accepted, shed []time.Duration
	for _, o := range outcomes {
		co := rep.ByClass[o.class]
		co.Sent++
		switch o.status {
		case 200:
			co.Accepted++
			rep.Accepted++
			accepted = append(accepted, o.latency)
			if o.degraded {
				rep.Degraded++
			}
		case 503:
			co.Shed++
			rep.Shed++
			shed = append(shed, o.latency)
			if o.noRetry {
				rep.MissingRetryAfter++
			}
		default:
			co.Errors++
			rep.Errors++
			if o.truncated {
				rep.Truncated++
			}
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		rep.Throughput = float64(rep.Accepted) / s
	}
	rep.AcceptedLatency = latencyStats(accepted)
	rep.ShedLatency = latencyStats(shed)
	return rep
}
