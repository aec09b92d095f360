package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

// distinctConfigs returns n distinct in-space configurations derived
// from the fixture's query set.
func distinctConfigs(params [][]float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		q := append([]float64(nil), params[i%len(params)]...)
		q[0] += float64(i) * 1e-3
		out[i] = q
	}
	return out
}

// postPredict sends one /v1/predict request and decodes a 200 response.
func postPredict(t *testing.T, s *Server, req PredictRequest) PredictResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return PredictResponse{}
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
	var resp PredictResponse
	if w.Code != http.StatusOK {
		t.Errorf("status %d: %s", w.Code, w.Body.String())
		return resp
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Error(err)
	}
	return resp
}

// inflightLen returns the number of keys being computed.
func (c *Cache) inflightLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// TestBatchMatchesSerialRequests: with one worker, a batch's results,
// Cached flags and cache counters are those of the same configurations
// sent one request at a time, in order — a repeated key included, which
// the serial requests find cached — with the cache on and off, and for
// point, at-scale with small curves, and interval requests.
func TestBatchMatchesSerialRequests(t *testing.T) {
	_, params := testModel(t)
	cfgs := distinctConfigs(params, 10)
	// Repeats of an earlier key, and a key one request warmed beforehand.
	batch := append(append([][]float64{}, cfgs...), cfgs[3], cfgs[0], cfgs[3])
	for _, cacheSize := range []int{4096, 0} {
		for _, variant := range []PredictRequest{
			{},
			{At: 256, Small: true},
			{Interval: 0.8},
		} {
			t.Run(fmt.Sprintf("cache=%d/at=%d/interval=%v", cacheSize, variant.At, variant.Interval), func(t *testing.T) {
				opts := Options{CacheSize: cacheSize, BatchWorkers: 1}
				batched, _, _, _ := newTestServer(t, opts)
				serial, _, _, _ := newTestServer(t, opts)
				warm := variant
				warm.Params = cfgs[5]
				postPredict(t, batched, warm)
				postPredict(t, serial, warm)

				req := variant
				req.Configs = batch
				got := postPredict(t, batched, req)
				if len(got.Results) != len(batch) {
					t.Fatalf("%d results for %d configs", len(got.Results), len(batch))
				}
				for i, cfg := range batch {
					one := variant
					one.Params = cfg
					want := postPredict(t, serial, one)
					g, _ := json.Marshal(got.Results[i])
					w, _ := json.Marshal(want.Results[0])
					if !bytes.Equal(g, w) {
						t.Fatalf("config %d: batch %s != serial %s", i, g, w)
					}
				}
				if g, w := batched.Cache().Stats(), serial.Cache().Stats(); g != w {
					t.Fatalf("cache counters: batch %+v != serial %+v", g, w)
				}
			})
		}
	}
}

// TestOverlappingBatchesComputeOnce sends batches that share keys while
// one another's claims are in flight. Every key is computed once (one
// miss per distinct key), every lookup is counted exactly once as a hit,
// a miss or a coalesced wait, every coalesced wait is fulfilled (none is
// abandoned and nothing stays in flight), and every result equals the
// model's own evaluation. First deterministically — the second batch
// starts once the first holds all its claims, so exactly the shared half
// coalesces — then as concurrent batches over shuffled windows of one
// key pool, where any claim-then-wait cycle would hang the test.
func TestOverlappingBatchesComputeOnce(t *testing.T) {
	const n = 24
	s, _, m, params := newTestServer(t, Options{CacheSize: 4096, BatchWorkers: 1, SyntheticDelay: time.Millisecond})
	keys := distinctConfigs(params, 3*n/2)
	check := func(resp PredictResponse, cfgs [][]float64) {
		t.Helper()
		for i, res := range resp.Results {
			want := m.Evaluate(cfgs[i], 0).Runtimes
			for j := range want {
				if res.Runtimes[j] != want[j] {
					t.Errorf("config %v: runtimes %v, model %v", cfgs[i], res.Runtimes, want)
					break
				}
			}
		}
	}

	first, second := keys[:n], keys[n/2:]
	done := make(chan PredictResponse)
	go func() { done <- postPredict(t, s, PredictRequest{Configs: first}) }()
	for s.Cache().inflightLen() < n {
		runtime.Gosched()
	}
	r2 := postPredict(t, s, PredictRequest{Configs: second})
	r1 := <-done
	check(r1, first)
	check(r2, second)
	for i, res := range r2.Results {
		if shared := i < n/2; res.Cached != shared {
			t.Fatalf("second batch config %d: cached %v, want %v", i, res.Cached, shared)
		}
	}
	st := s.Cache().Stats()
	if st.Misses != 3*n/2 || st.Coalesced != n/2 || st.Hits != 0 || st.Abandoned != 0 {
		t.Fatalf("counters %+v, want %d misses, %d coalesced, no hits or abandoned waits", st, 3*n/2, n/2)
	}

	// Concurrent batches over shuffled, overlapping windows of a fresh
	// key pool (new keys: the model version in the key is unchanged, so
	// shift the parameters instead).
	pool := distinctConfigs(params, 4*n)
	for _, p := range pool {
		p[1] += 0.5
	}
	before := s.Cache().Stats()
	const senders = 6
	var wg sync.WaitGroup
	var lookups int64
	for g := 0; g < senders; g++ {
		r := rng.New(uint64(g))
		lo := r.Intn(2 * n)
		cfgs := make([][]float64, 2*n)
		for i, j := range r.Perm(2 * n) {
			cfgs[i] = pool[lo+j]
		}
		lookups += int64(len(cfgs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(postPredict(t, s, PredictRequest{Configs: cfgs}), cfgs)
		}()
	}
	wg.Wait()
	after := s.Cache().Stats()
	hits, misses, coalesced := after.Hits-before.Hits, after.Misses-before.Misses, after.Coalesced-before.Coalesced
	if hits+misses+coalesced != lookups {
		t.Fatalf("hits %d + misses %d + coalesced %d != %d lookups", hits, misses, coalesced, lookups)
	}
	if misses != int64(after.Size-before.Size) {
		t.Fatalf("%d misses for %d new keys: some key was computed twice", misses, after.Size-before.Size)
	}
	if after.Abandoned != 0 || s.Cache().inflightLen() != 0 {
		t.Fatalf("abandoned %d, in flight %d after every batch returned", after.Abandoned, s.Cache().inflightLen())
	}
}

// TestBatchClaimsNotWaitedOnByOwner: a key repeated inside one range is
// resolved from the range's own flight after it fulfils its claims; it
// never waits on that flight (which would deadlock), and counts as a hit.
func TestBatchClaimsNotWaitedOnByOwner(t *testing.T) {
	s, _, m, params := newTestServer(t, Options{CacheSize: 4096, BatchWorkers: 1})
	p := params[0]
	resp := postPredict(t, s, PredictRequest{Configs: [][]float64{p, p, p}})
	want := m.Evaluate(p, 0)
	for i, res := range resp.Results {
		if res.Cached != (i > 0) || res.Cluster != want.Cluster || res.Runtimes[0] != want.Runtimes[0] {
			t.Fatalf("result %d: %+v, want cached=%v and the model's evaluation", i, res, i > 0)
		}
	}
	if st := s.Cache().Stats(); st.Misses != 1 || st.Hits != 2 || st.Coalesced != 0 {
		t.Fatalf("counters %+v, want 1 miss and 2 hits", st)
	}
}
