package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The traced run gives the per-layer numbers. It replays the workload
// against a real server as the end-to-end run does, while a collector
// pulls the server's request and pipeline spans from /debug/traces. The
// server records spans on every run; what the traced run adds is the
// collector's scraping. The window alternates between unscraped
// segments and scraped segments, in which the collector pulls the whole
// ring; the p50 difference between the two is the scrape overhead. It
// then times calls into each layer's public functions in process, on the
// same inputs.

// segment is the length of each alternating unscraped/scraped stretch of
// the window: short, so that the two kinds share the host's slower and
// faster moments alike.
const segment = 500 * time.Millisecond

// collector gathers finished traces from the server's ring.
type collector struct {
	base   string
	client *http.Client

	mu     sync.Mutex
	traces map[uint64]obs.Trace
}

// pull reads the server's whole trace ring and keeps the new traces.
func (c *collector) pull() error {
	resp, err := c.client.Get(fmt.Sprintf("%s/debug/traces?n=%d", c.base, obs.DefaultTraceCapacity))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var doc struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("decoding /debug/traces: %w", err)
	}
	c.mu.Lock()
	for _, t := range doc.Traces {
		c.traces[t.Seq] = t
	}
	c.mu.Unlock()
	return nil
}

// start runs the collector until the returned stop function is called;
// stop waits for it and returns its error.
func (c *collector) start(start time.Time, window time.Duration) (stop func() error) {
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- c.run(start, window, done) }()
	return func() error {
		close(done)
		return <-errc
	}
}

// run pulls the whole ring every 100 ms during scraped segments (odd
// segments of the window) and throughout once the window is over. It
// returns when stop closes.
func (c *collector) run(start time.Time, window time.Duration, stop <-chan struct{}) error {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return c.pull()
		case <-tick.C:
		}
		if since := time.Since(start); since >= window || scraped(since) {
			if err := c.pull(); err != nil {
				return err
			}
		}
	}
}

// scraped reports whether a window offset falls in a scraped segment.
func scraped(at time.Duration) bool { return int(at/segment)%2 == 1 }

// spanStats are the per-layer figures the server's own spans give.
type spanStats struct {
	// Window point requests, µs.
	requestSelf, compute, cacheLookupSelf []float64
	// model_eval and calibration spans of every single-configuration
	// request that missed the cache, warm-up included, µs: on a cache-hit
	// workload only the warm-up runs the model.
	modelEval, calibration []float64
	// Predict requests, and how many of them waited in the admission
	// queue.
	predicts, queued int
	// Pipeline runs, ms.
	fit, calibrate, gate, promote []float64
}

func (c *collector) stats() spanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s spanStats
	for _, t := range c.traces {
		span := map[string]float64{}
		for _, sp := range t.Spans {
			span[sp.Name] += float64(sp.DurNS)
		}
		if t.Kind == "pipeline" {
			s.fit = append(s.fit, span["fit"]/1e6)
			s.calibrate = append(s.calibrate, span["calibrate"]/1e6)
			s.gate = append(s.gate, span["gate"]/1e6)
			s.promote = append(s.promote, span["promote"]/1e6)
			continue
		}
		if t.Name != "predict" {
			continue
		}
		s.predicts++
		if _, ok := span["queue_wait"]; ok {
			s.queued++
		}
		if v, ok := span["model_eval"]; ok {
			s.modelEval = append(s.modelEval, v/1e3)
		}
		if v, ok := span["calibration"]; ok {
			s.calibration = append(s.calibration, v/1e3)
		}
		if strings.HasPrefix(t.ID, "p-") {
			self := float64(t.TotalNS) - span["compute"] - span["queue_wait"]
			s.requestSelf = append(s.requestSelf, self/1e3)
			s.compute = append(s.compute, span["compute"]/1e3)
			s.cacheLookupSelf = append(s.cacheLookupSelf, (span["cache_lookup"]-span["model_eval"]-span["calibration"])/1e3)
		}
	}
	return s
}

// traced is the per-layer run.
func (r *runner) traced() (*result, error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	window, err := r.tr.schedule(r.stream(100), r.w.rate, r.seconds)
	if err != nil {
		return nil, err
	}
	if _, err := r.setUps(1); err != nil {
		return nil, err
	}
	defer r.setup.srv.stop()
	before, err := r.scrape()
	if err != nil {
		return nil, err
	}
	r.warm()
	cacheBefore, err := r.scrape()
	if err != nil {
		return nil, err
	}

	// The warm-up's cache misses are the model spans a cache-hit
	// workload has; keep them before the window overwrites the ring.
	col := &collector{base: r.setup.srv.base, client: newClient(1), traces: map[uint64]obs.Trace{}}
	if err := col.pull(); err != nil {
		return nil, err
	}
	stopCol := col.start(time.Now(), r.seconds)

	// The rounds follow the window on the same server, and the
	// collector, scraping throughout by then, keeps their spans.
	winOuts := r.phase(window)
	cacheAfter, err := r.scrape()
	var rounds []time.Duration
	var failedRounds int
	if err == nil {
		rounds, failedRounds, err = r.retrainRounds()
	}
	if cerr := stopCol(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	jsonMS, textMS, err := r.scrapeCost()
	if err != nil {
		return nil, err
	}
	after, err := r.scrape()
	if err != nil {
		return nil, err
	}
	spans := col.stats()
	r.setup.srv.stop()

	res := newResult()
	res.add("serving.request_self_us", median(spans.requestSelf), "us", len(spans.requestSelf))
	res.add("serving.compute_us", median(spans.compute), "us", len(spans.compute))
	res.add("serving.cache_lookup_self_us", median(spans.cacheLookupSelf), "us", len(spans.cacheLookupSelf))
	res.add("serving.model_eval_us", median(spans.modelEval), "us", len(spans.modelEval))
	res.add("serving.calibration_us", median(spans.calibration), "us", len(spans.calibration))
	res.add("serving.queued_ratio", float64(spans.queued)/float64(spans.predicts), "ratio", spans.predicts)
	res.add("pipeline.fit_ms", median(spans.fit), "ms", len(spans.fit))
	res.add("pipeline.calibrate_ms", median(spans.calibrate), "ms", len(spans.calibrate))
	res.add("pipeline.gate_ms", median(spans.gate), "ms", len(spans.gate))
	res.add("pipeline.promote_ms", median(spans.promote), "ms", len(spans.promote))
	res.add("pipeline.promoted_ratio", float64(len(rounds))/float64(r.sz.Rounds), "ratio", r.sz.Rounds)
	res.add("obs.metrics_json_ms", jsonMS, "ms", scrapes)
	res.add("obs.metrics_text_ms", textMS, "ms", scrapes)

	hits := cacheAfter.Cache.Hits - cacheBefore.Cache.Hits
	misses := cacheAfter.Cache.Misses - cacheBefore.Cache.Misses
	res.add("cache.hit_ratio", float64(hits)/float64(hits+misses), "ratio", int(hits+misses))
	res.add("cache.evictions", float64(cacheAfter.Cache.Evictions-cacheBefore.Cache.Evictions), "count", 1)
	predicts := cacheAfter.Endpoints["predict"].Requests - cacheBefore.Endpoints["predict"].Requests
	var shed int64
	if cacheAfter.Load != nil && cacheBefore.Load != nil {
		shed = cacheAfter.Load.ShedTotal() - cacheBefore.Load.ShedTotal()
	}
	res.add("loadctl.shed_ratio", float64(shed)/float64(predicts), "ratio", int(predicts))

	gen := generatorStats(winOuts)
	if err := r.validate(gen); err != nil {
		return nil, err
	}
	res.add("gen.late_p99_ms", gen.lateP99, "ms", gen.sent-gen.queued)
	res.add("gen.sent", float64(gen.sent), "count", 1)
	res.add("gen.dropped", float64(gen.dropped), "count", 1)
	unscrapedP50, scrapedP50, n := r.segmentP50(winOuts)
	res.add("trace.scrape_overhead_pct", 100*(scrapedP50/unscrapedP50-1), "%", n)

	if err := r.layers(res, window); err != nil {
		return nil, err
	}

	r.oracle.verify(r.checked)
	all, win := account(r.checked), account(ptrs(winOuts))
	res.Attempted = win.attempted + r.sz.Rounds
	res.Failed = win.attempted - win.ok + failedRounds
	r.note("window: %d arrivals at %.0f/s over %s in alternating unscraped/scraped %s segments; %d traces collected",
		len(winOuts), r.w.rate, r.seconds, segment, len(col.traces))
	res.Correct = r.judge(all, before, after)
	return res, nil
}

// segmentP50 is the median point latency of arrivals due in unscraped
// and in scraped segments, and how many arrivals the two cover. drive
// starts its clock just after the collector's, so their offsets agree to
// within microseconds.
func (r *runner) segmentP50(outs []outcome) (unscrapedP50, scrapedP50 float64, n int) {
	var u, s []float64
	for i := range outs {
		o := &outs[i]
		if o.req.class != point || o.dropped || o.err != nil || o.status != http.StatusOK {
			continue
		}
		if scraped(o.req.due) {
			s = append(s, ms(o.latency()))
		} else {
			u = append(u, ms(o.latency()))
		}
	}
	return median(u), median(s), len(u) + len(s)
}

// scrapes is how many /metrics scrapes of each format are timed.
const scrapes = 20

// scrapeCost times GET /metrics in JSON and in Prometheus text, as an
// operator's scraper would issue it, on the now idle server.
func (r *runner) scrapeCost() (jsonMS, textMS float64, err error) {
	var js, ts []float64
	for i := 0; i < scrapes; i++ {
		for _, accept := range []string{"application/json", "text/plain"} {
			req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, r.setup.srv.base+"/metrics", nil)
			if err != nil {
				return 0, 0, err
			}
			req.Header.Set("Accept", accept)
			t0 := time.Now()
			resp, err := r.client.Do(req)
			if err != nil {
				return 0, 0, err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return 0, 0, err
			}
			d := ms(time.Since(t0))
			if accept == "text/plain" {
				ts = append(ts, d)
			} else {
				js = append(js, d)
			}
		}
	}
	return median(js), median(ts), nil
}
