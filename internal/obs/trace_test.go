package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTracerRing covers recording, bounded retention, and the two
// deterministic snapshot orders.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		rt := tr.StartRequest("request", "predict", "id-"+string(rune('a'+i)))
		sc := rt.StartSpan()
		if d := rt.EndSpan("compute", sc); d < 0 {
			t.Fatalf("span duration negative: %v", d)
		}
		rt.AddSpan("queue_wait", 0, time.Duration(i)*time.Millisecond)
		rt.Finish(200)
	}
	recent := tr.Snapshot(0, false)
	if len(recent) != 4 {
		t.Fatalf("ring kept %d traces, want 4 (capacity)", len(recent))
	}
	for i := 1; i < len(recent); i++ {
		if recent[i].Seq >= recent[i-1].Seq {
			t.Fatalf("recent order not descending by seq: %+v", recent)
		}
	}
	if recent[0].ID != "id-f" || recent[0].Status != 200 || recent[0].Kind != "request" {
		t.Fatalf("newest trace wrong: %+v", recent[0])
	}
	if len(recent[0].Spans) != 2 || recent[0].Spans[0].Name != "compute" {
		t.Fatalf("spans wrong: %+v", recent[0].Spans)
	}

	if got := tr.Snapshot(2, false); len(got) != 2 {
		t.Fatalf("n=2 returned %d traces", len(got))
	}

	slow := tr.Snapshot(0, true)
	for i := 1; i < len(slow); i++ {
		if slow[i].TotalNS > slow[i-1].TotalNS {
			t.Fatalf("slow order not descending by total: %+v", slow)
		}
		if slow[i].TotalNS == slow[i-1].TotalNS && slow[i].Seq >= slow[i-1].Seq {
			t.Fatalf("slow ties not broken by seq: %+v", slow)
		}
	}
}

// TestTracerNilSafety: a nil tracer and the nil ReqTrace it hands out
// must be inert on every call path, so disabled tracing needs no
// guards at call sites.
func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	rt := tr.StartRequest("request", "predict", "x")
	if rt != nil {
		t.Fatal("nil tracer returned a live trace")
	}
	if rt.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
	sc := rt.StartSpan()
	if d := rt.EndSpan("noop", sc); d != 0 {
		t.Fatalf("nil EndSpan = %v, want 0", d)
	}
	rt.AddSpan("noop", 0, time.Second)
	rt.Finish(200)
	if got := tr.Snapshot(10, false); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
}

// TestTracerConcurrentRecording races recorders against snapshots and
// parallel same-trace span appends (-race coverage for the ring and
// the ReqTrace span latch).
func TestTracerConcurrentRecording(t *testing.T) {
	tr := NewTracer(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rt := tr.StartRequest("request", "predict", "w")
				var inner sync.WaitGroup
				for k := 0; k < 3; k++ { // parallel batch workers share one trace
					inner.Add(1)
					go func(k int) {
						defer inner.Done()
						rt.AddSpan("chunk", 0, time.Duration(k))
					}(k)
				}
				inner.Wait()
				rt.Finish(200)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, tr := range tr.Snapshot(0, i%2 == 0) {
				if tr.Seq == 0 {
					t.Error("snapshot returned an empty slot")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
}

// TestTracesHandler exercises GET /debug/traces: JSON shape, n and
// sort params, and rejection of bad queries.
func TestTracesHandler(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		rt := tr.StartRequest("request", "predict", "id")
		rt.AddSpan("compute", 0, time.Millisecond)
		rt.Finish(200)
	}
	h := tr.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?n=3&sort=slow", nil))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var doc struct {
		Count  int     `json:"count"`
		Sort   string  `json:"sort"`
		Traces []Trace `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body.String())
	}
	if doc.Count != 3 || doc.Sort != "slow" || len(doc.Traces) != 3 {
		t.Fatalf("doc wrong: %+v", doc)
	}

	for _, q := range []string{"?n=0", "?n=x", "?sort=sideways"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces"+q, nil))
		if w.Code != 400 {
			t.Fatalf("query %q: status %d, want 400", q, w.Code)
		}
	}
}

// TestIDGen checks uniqueness, prefix plumbing, and that generation is
// allocation-light.
func TestIDGen(t *testing.T) {
	g := NewIDGen("srv")
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := g.Next()
		if !strings.HasPrefix(id, "srv-") {
			t.Fatalf("id %q missing prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	if NewIDGen("").Next() == "" {
		t.Fatal("default-prefix generator returned empty id")
	}
	allocs := testing.AllocsPerRun(100, func() { _ = g.Next() })
	if allocs > 1 {
		t.Fatalf("Next allocates %v times, want <= 1", allocs)
	}
}

// newTestLogger returns a JSON logger with the timestamp attribute
// stripped, so test assertions on captured log output are
// deterministic byte-for-byte.
func newTestLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: slog.LevelDebug,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// TestLoggers: newTestLogger output must be deterministic (no
// timestamp), NewLogger must emit leveled JSON.
func TestLoggers(t *testing.T) {
	var a, b strings.Builder
	newTestLogger(&a).Info("promoted", "gen", 3, "model", "smg2000")
	newTestLogger(&b).Info("promoted", "gen", 3, "model", "smg2000")
	if a.String() != b.String() {
		t.Fatalf("test logger not deterministic:\n%s\n%s", a.String(), b.String())
	}
	if strings.Contains(a.String(), `"time"`) {
		t.Fatalf("test logger leaked a timestamp: %s", a.String())
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(a.String()), &doc); err != nil {
		t.Fatalf("test logger output not JSON: %v", err)
	}
	if doc["msg"] != "promoted" || doc["level"] != "INFO" || doc["model"] != "smg2000" {
		t.Fatalf("log attrs wrong: %v", doc)
	}

	var c strings.Builder
	lg := NewLogger(&c, ParseLevel("warn"))
	lg.Info("dropped")
	lg.Warn("kept")
	if strings.Contains(c.String(), "dropped") || !strings.Contains(c.String(), "kept") {
		t.Fatalf("leveling wrong: %s", c.String())
	}
}

// TestOpsMux: the ops surface must serve pprof and the trace ring.
func TestOpsMux(t *testing.T) {
	tr := NewTracer(4)
	tr.StartRequest("request", "predict", "id").Finish(200)
	mux := OpsMux(tr)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/traces"} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
	}
}
