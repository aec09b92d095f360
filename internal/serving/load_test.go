package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/loadctl"
)

// loadTestConfig is a small, deterministic controller: fixed limit 1 so
// a single occupied slot saturates, queue of 8 (batch ceiling 4,
// interval 6, degraded latch at 7).
func loadTestConfig() loadctl.Config {
	return loadctl.Config{InitialLimit: 1, FixedLimit: true, QueueCapacity: 8}
}

// doJSONDeadline is doJSON with an X-Deadline-Ms header attached.
func doJSONDeadline(t *testing.T, h http.Handler, body any, deadline string, out any) (int, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(raw))
	if deadline != "" {
		req.Header.Set(DeadlineHeader, deadline)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", w.Body.String(), err)
		}
	}
	return w.Code, w.Result().Header
}

// drainWaiters removes queued waiters enqueued directly on the
// controller and releases the occupied slot.
func drainWaiters(t *testing.T, c *loadctl.Controller, ws []*loadctl.Waiter) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range ws {
		if err := w.Wait(ctx); err == nil {
			t.Fatal("canceled waiter was granted a slot")
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		req  PredictRequest
		n    int
		want loadctl.Class
	}{
		{PredictRequest{}, 1, loadctl.Point},
		{PredictRequest{Interval: 0.9}, 1, loadctl.Interval},
		{PredictRequest{}, 2, loadctl.Batch},
		{PredictRequest{Interval: 0.9}, 3, loadctl.Batch}, // batch wins
	}
	for i, c := range cases {
		if got := classify(&c.req, c.n); got != c.want {
			t.Errorf("case %d: classify = %v, want %v", i, got, c.want)
		}
	}
}

func TestDeadlineHeaderInvalid(t *testing.T) {
	opts := DefaultOptions()
	s, _, _, params := newTestServer(t, opts)
	for _, h := range []string{"abc", "-5", "1.5"} {
		code, _ := doJSONDeadline(t, s.Handler(), PredictRequest{Params: params[0]}, h, nil)
		if code != http.StatusBadRequest {
			t.Errorf("header %q: status %d, want 400", h, code)
		}
	}
}

func TestShedQueueFullAndBudget(t *testing.T) {
	opts := DefaultOptions()
	opts.Load = loadTestConfig()
	s, _, _, params := newTestServer(t, opts)
	c := s.LoadController()

	// Occupy the single slot, then four queued point waiters: total
	// occupancy reaches the batch ceiling (4) without latching degraded
	// mode (high water 7).
	if w, shed := c.Acquire(loadctl.Point, 0); w != nil || shed != nil {
		t.Fatalf("slot occupation: w=%v shed=%v", w, shed)
	}
	var ws []*loadctl.Waiter
	for i := 0; i < 4; i++ {
		w, shed := c.Acquire(loadctl.Point, 0)
		if shed != nil || w == nil {
			t.Fatalf("enqueue %d: w=%v shed=%v", i, w, shed)
		}
		ws = append(ws, w)
	}
	defer func() {
		drainWaiters(t, c, ws)
		c.Release(time.Millisecond)
	}()

	// A batch request sheds queue_full: occupancy 4 >= batch ceiling 4.
	var shed ShedResponse
	code, hdr := doJSONDeadline(t, s.Handler(), PredictRequest{Configs: params[:2]}, "", &shed)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("batch status %d, want 503", code)
	}
	if shed.Error != "overloaded" || shed.Reason != loadctl.ShedQueueFull || shed.Class != "batch" {
		t.Fatalf("shed body %+v", shed)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	if shed.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms %d, want > 0", shed.RetryAfterMS)
	}

	// A point request with a 1ms budget sheds on the wait estimate (EWMA
	// starts at the 100ms target; four waiters ahead of it).
	code, _ = doJSONDeadline(t, s.Handler(), PredictRequest{Params: params[0]}, "1", &shed)
	if code != http.StatusServiceUnavailable || shed.Reason != loadctl.ShedBudget {
		t.Fatalf("budget shed: status %d reason %q", code, shed.Reason)
	}

	snap := c.Snapshot()
	if snap.ShedQueueFull.Batch != 1 || snap.ShedBudget.Point != 1 {
		t.Fatalf("shed counters %+v", snap)
	}
	if snap.ShedTotal() != 2 {
		t.Fatalf("ShedTotal = %d, want 2 (every 503 accounted)", snap.ShedTotal())
	}
}

func TestDegradedServesCacheHitsOnly(t *testing.T) {
	opts := DefaultOptions()
	opts.Load = loadTestConfig()
	s, _, _, params := newTestServer(t, opts)
	c := s.LoadController()

	// Prime the cache while healthy.
	var resp PredictResponse
	if code := doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: params[0]}, &resp); code != http.StatusOK {
		t.Fatalf("prime status %d", code)
	}
	if resp.Degraded {
		t.Fatal("healthy response marked degraded")
	}

	// Saturate: occupy the slot, queue to the high-water mark (7 of 8).
	if w, shed := c.Acquire(loadctl.Point, 0); w != nil || shed != nil {
		t.Fatalf("slot occupation: w=%v shed=%v", w, shed)
	}
	var ws []*loadctl.Waiter
	for i := 0; i < 7; i++ {
		w, shed := c.Acquire(loadctl.Point, 0)
		if shed != nil || w == nil {
			t.Fatalf("enqueue %d: w=%v shed=%v", i, w, shed)
		}
		ws = append(ws, w)
	}
	defer func() {
		drainWaiters(t, c, ws)
		c.Release(time.Millisecond)
	}()
	if !c.Degraded() {
		t.Fatal("controller not degraded at high water")
	}

	// The cached configuration is still answered — degraded, marked.
	code, hdr := doJSONDeadline(t, s.Handler(), PredictRequest{Params: params[0]}, "", &resp)
	if code != http.StatusOK {
		t.Fatalf("degraded hit status %d", code)
	}
	if !resp.Degraded || hdr.Get("X-Degraded") != "1" {
		t.Fatalf("degraded hit not marked: degraded=%v header=%q", resp.Degraded, hdr.Get("X-Degraded"))
	}
	if len(resp.Results) != 1 || !resp.Results[0].Cached {
		t.Fatalf("degraded results %+v", resp.Results)
	}

	// An uncached configuration is shed with reason degraded.
	var shed ShedResponse
	code, _ = doJSONDeadline(t, s.Handler(), PredictRequest{Params: params[1]}, "", &shed)
	if code != http.StatusServiceUnavailable || shed.Reason != loadctl.ShedDegraded {
		t.Fatalf("degraded miss: status %d reason %q", code, shed.Reason)
	}

	snap := c.Snapshot()
	if snap.DegradedServed != 1 || snap.ShedDegraded.Point != 1 || snap.DegradedEpisodes != 1 {
		t.Fatalf("degraded counters %+v", snap)
	}
}

func TestComputeTimeoutSheds(t *testing.T) {
	opts := DefaultOptions()
	opts.SyntheticDelay = 20 * time.Millisecond
	opts.MaxDeadline = 50 * time.Millisecond // also exercises clamping
	s, _, _, params := newTestServer(t, opts)

	// Five uncached configs at 20ms each against a 50ms budget (the
	// client asked for 10s; the server clamps): the deadline fires
	// mid-batch and the request is shed as a timeout, not left hanging.
	var shed ShedResponse
	code, hdr := doJSONDeadline(t, s.Handler(), PredictRequest{Configs: params[:5]}, "10000", &shed)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if shed.Reason != loadctl.ShedTimeout || shed.Class != "batch" {
		t.Fatalf("shed body %+v", shed)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("timeout shed missing Retry-After")
	}
	if got := s.LoadController().Snapshot().Timeouts.Batch; got != 1 {
		t.Fatalf("timeout counter %d, want 1", got)
	}
}

// TestComputeTimeoutShedsPoint: one configuration takes the range path
// a batch takes, so a deadline that passes during its evaluation sheds
// it as a timeout, and the value it computed stays cached for the next
// request.
func TestComputeTimeoutShedsPoint(t *testing.T) {
	opts := DefaultOptions()
	opts.SyntheticDelay = 30 * time.Millisecond
	s, _, _, params := newTestServer(t, opts)
	req := PredictRequest{Params: params[0]}

	var shed ShedResponse
	code, _ := doJSONDeadline(t, s.Handler(), req, "5", &shed)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if shed.Reason != loadctl.ShedTimeout || shed.Class != "point" {
		t.Fatalf("shed body %+v", shed)
	}
	if got := s.LoadController().Snapshot().Timeouts.Point; got != 1 {
		t.Fatalf("timeout counter %d, want 1", got)
	}

	var resp PredictResponse
	if code, _ := doJSONDeadline(t, s.Handler(), req, "", &resp); code != http.StatusOK {
		t.Fatalf("retry status %d, want 200", code)
	}
	if len(resp.Results) != 1 || !resp.Results[0].Cached {
		t.Fatalf("retry %+v, want the timed-out request's cached result", resp.Results)
	}
}

func TestHealthzDraining(t *testing.T) {
	s, _, _, _ := newTestServer(t, DefaultOptions())
	var st map[string]any
	if code := doJSON(t, s.Handler(), "GET", "/healthz", nil, &st); code != http.StatusOK {
		t.Fatalf("healthy status %d", code)
	}
	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	code := doJSON(t, s.Handler(), "GET", "/healthz", nil, &st)
	if code != http.StatusServiceUnavailable || st["status"] != "draining" {
		t.Fatalf("draining healthz: status %d body %v", code, st)
	}
}

func TestPreDrainHookFlipsHealthz(t *testing.T) {
	s, _, _, _ := newTestServer(t, DefaultOptions())
	g := NewGraceful("127.0.0.1:0", s.Handler(), time.Second)
	g.PreDrain = s.BeginDrain
	if err := g.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !s.Draining() {
		t.Fatal("PreDrain hook did not run during Shutdown")
	}
}

func TestLoadStatusEndpoint(t *testing.T) {
	s, _, _, params := newTestServer(t, DefaultOptions())
	if code := doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: params[0]}, nil); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	var st LoadStatus
	if code := doJSON(t, s.Handler(), "GET", "/v1/loadstatus", nil, &st); code != http.StatusOK {
		t.Fatalf("loadstatus status %d", code)
	}
	if !st.Enabled || st.Draining || st.Load == nil {
		t.Fatalf("loadstatus %+v", st)
	}
	if st.Load.Mode != "aimd" || st.Load.Admitted.Point != 1 || st.Load.Completed != 1 {
		t.Fatalf("load snapshot %+v", st.Load)
	}
}

func TestLoadControlDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableLoadControl = true
	s, _, _, params := newTestServer(t, opts)
	if s.LoadController() != nil {
		t.Fatal("controller present despite DisableLoadControl")
	}
	if code := doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: params[0]}, nil); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	var st LoadStatus
	doJSON(t, s.Handler(), "GET", "/v1/loadstatus", nil, &st)
	if st.Enabled || st.Load != nil {
		t.Fatalf("loadstatus %+v, want disabled", st)
	}
}

func TestMetricsIncludeLoad(t *testing.T) {
	opts := DefaultOptions()
	opts.Load = loadTestConfig()
	s, _, _, params := newTestServer(t, opts)
	doJSON(t, s.Handler(), "POST", "/v1/predict", PredictRequest{Params: params[0]}, nil)
	var snap Snapshot
	if code := doJSON(t, s.Handler(), "GET", "/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Load == nil {
		t.Fatal("metrics missing load section")
	}
	if snap.Load.Mode != "fixed" || snap.Load.Limit != 1 || snap.Load.Admitted.Point != 1 {
		t.Fatalf("load section %+v", snap.Load)
	}
}
