package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/rng"
	"repro/internal/uncertainty"
)

// serveOnce drives one request through the full handler stack, reusing
// the request, reader, and recorder so benchmark iterations measure the
// server, not the test harness.
type serveOnce struct {
	s   *Server
	rd  *bytes.Reader
	req *http.Request
	w   *httptest.ResponseRecorder
}

func newServeOnce(s *Server) *serveOnce {
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest("POST", "/v1/predict", io.NopCloser(rd))
	return &serveOnce{s: s, rd: rd, req: req, w: httptest.NewRecorder()}
}

func (d *serveOnce) do(tb testing.TB, body []byte) {
	d.rd.Reset(body)
	d.w.Body.Reset()
	d.w.Code = http.StatusOK
	d.s.Handler().ServeHTTP(d.w, d.req)
	if d.w.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", d.w.Code, d.w.Body.String())
	}
}

// BenchmarkServePredict measures the full handler path (JSON decode →
// cache → model → JSON encode) for the two regimes that bound serving
// latency: cache hits (steady-state repeated queries) and cache misses
// (every request a fresh configuration, full two-level prediction).
// Hit-regime caches are warmed before the timer starts, so even a single
// timed iteration measures a hit, not the first miss.
func BenchmarkServePredict(b *testing.B) {
	m, params := testModel(b)
	p := params[0]

	run := func(b *testing.B, s *Server, warm []byte, bodyFor func(i int) []byte) {
		d := newServeOnce(s)
		if warm != nil {
			d.do(b, warm)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.do(b, bodyFor(i))
		}
	}

	b.Run("hit", func(b *testing.B) {
		reg := NewRegistry()
		reg.Install("default", m)
		s := New(reg, Options{CacheSize: 1024})
		body, _ := json.Marshal(PredictRequest{Params: p})
		run(b, s, body, func(int) []byte { return body })
	})

	b.Run("miss", func(b *testing.B) {
		reg := NewRegistry()
		reg.Install("default", m)
		// A small cache over a much wider key cycle: every request is a
		// genuine miss (lookup, full two-level prediction, insert, evict).
		s := New(reg, Options{CacheSize: 16})
		bodies := make([][]byte, 0, 4096)
		for i := 0; i < 4096; i++ {
			q := append([]float64(nil), p...)
			q[0] += float64(i) * 1e-3
			raw, _ := json.Marshal(PredictRequest{Params: q})
			bodies = append(bodies, raw)
		}
		run(b, s, nil, func(i int) []byte { return bodies[i%len(bodies)] })
	})

	b.Run("batch32-hit", func(b *testing.B) {
		reg := NewRegistry()
		reg.Install("default", m)
		s := New(reg, Options{CacheSize: 1024})
		cfgs := make([][]float64, 32)
		for i := range cfgs {
			q := append([]float64(nil), p...)
			q[0] += float64(i)
			cfgs[i] = q
		}
		body, _ := json.Marshal(PredictRequest{Configs: cfgs})
		run(b, s, body, func(int) []byte { return body })
	})
}

// BenchmarkObsServePredict isolates the cost of the observability layer
// on the hottest serving path: the same cache-hit predict request with
// tracing off (no span tree, no X-Request-Id minting) and on (the
// production default). It is for manual timing: the tracing clock
// boundary is designed to add two monotonic clock reads and one ring
// slot per request, nothing more. TestTracingAllocOverhead holds the
// machine-independent half of that contract (at most two extra
// allocations per traced hit).
func BenchmarkObsServePredict(b *testing.B) {
	m, params := testModel(b)
	p := params[0]
	body, _ := json.Marshal(PredictRequest{Params: p})

	run := func(b *testing.B, opts Options) {
		reg := NewRegistry()
		reg.Install("default", m)
		s := New(reg, opts)
		d := newServeOnce(s)
		d.do(b, body) // warm the cache: every timed iteration is a hit
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.do(b, body)
		}
	}

	b.Run("untraced", func(b *testing.B) {
		run(b, Options{CacheSize: 1024, DisableTracing: true})
	})
	b.Run("traced", func(b *testing.B) {
		run(b, Options{CacheSize: 1024})
	})
}

// BenchmarkServePredictInterval measures interval-carrying predictions
// through the full handler path, cache-miss regime (an interval request
// does the extra per-tree quantile or conformal-factor work on every
// miss; hits collapse to the same cached-encode path as point requests).
// The conformal variant serves a calibrated copy of the fixture model,
// the ensemble variant the uncalibrated original.
func BenchmarkServePredictInterval(b *testing.B) {
	m, params := testModel(b)
	p := params[0]

	bodies := func() [][]byte {
		out := make([][]byte, 0, 4096)
		for i := 0; i < 4096; i++ {
			q := append([]float64(nil), p...)
			q[0] += float64(i) * 1e-3
			raw, _ := json.Marshal(PredictRequest{Params: q, Interval: 0.9})
			out = append(out, raw)
		}
		return out
	}()

	run := func(b *testing.B, s *Server) {
		d := newServeOnce(s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.do(b, bodies[i%len(bodies)])
		}
	}

	b.Run("ensemble-miss", func(b *testing.B) {
		reg := NewRegistry()
		reg.Install("default", m)
		run(b, New(reg, Options{CacheSize: 16}))
	})

	b.Run("conformal-miss", func(b *testing.B) {
		cal := uncertainty.NewCalibrator(m.Cfg.LargeScales, m.Clusters())
		r := rng.New(7)
		for i := 0; i < 40*len(m.Cfg.LargeScales); i++ {
			pred := 50 + 10*r.Float64()
			cal.Add(i%m.Clusters(), i%len(m.Cfg.LargeScales), pred, pred*(1+0.2*(r.Float64()-0.5)))
		}
		cm := *m
		cm.Meta.Calibration = cal.Finish()
		if cm.Meta.Calibration == nil {
			b.Fatal("nil calibration")
		}
		reg := NewRegistry()
		reg.Install("default", &cm)
		run(b, New(reg, Options{CacheSize: 16}))
	})
}
