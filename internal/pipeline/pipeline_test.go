package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/serving"
)

const testApp = "smg2000"

// testPipelineConfig is the shared pipeline configuration: retrain on
// every new record, 25% holdout, generous promotion slack (the e2e test
// exercises rejection separately, with a strict gate).
func testPipelineConfig() Config {
	return Config{
		Core:          testCoreConfig(),
		Seed:          42,
		Gate:          GateConfig{HoldoutDenominator: 4, AllowedRegression: 1.0},
		MinNewRecords: 1,
	}
}

// doJSON drives one request through the serving handler.
func doJSON(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// predictOnce returns the served runtimes for one configuration.
func predictOnce(t *testing.T, h http.Handler, params []float64) (runtimes []float64, version, generation int) {
	t.Helper()
	var resp struct {
		Version int `json:"version"`
		Results []struct {
			Runtimes []float64 `json:"runtimes"`
		} `json:"results"`
	}
	if code := doJSON(t, h, "POST", "/v1/predict",
		map[string]any{"model": testApp, "params": params}, &resp); code != http.StatusOK {
		t.Fatalf("predict returned %d", code)
	}
	var models struct {
		Models []struct {
			Name       string `json:"name"`
			Generation int    `json:"generation"`
		} `json:"models"`
	}
	if code := doJSON(t, h, "GET", "/v1/models", nil, &models); code != http.StatusOK {
		t.Fatalf("models returned %d", code)
	}
	for _, m := range models.Models {
		if m.Name == testApp {
			generation = m.Generation
		}
	}
	return resp.Results[0].Runtimes, resp.Version, generation
}

// TestPipelineEndToEnd walks the full loop: ingest records, trigger a
// cycle, gate, promote into a live serving registry, observe the served
// prediction change, reject a candidate behind a strict gate with the
// incumbent left serving, and roll back to the previous generation —
// all without restarting the server.
func TestPipelineEndToEnd(t *testing.T) {
	_, more := testHistories(t)
	storeDir, gensDir := t.TempDir(), t.TempDir()
	store := newSeededStore(t, storeDir)

	reg := serving.NewRegistry()
	oreg := obs.NewRegistry("repro")
	h := newObsServer(reg, oreg)

	p, err := New(store, gensDir, testPipelineConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableObs(oreg, nil)

	// ---- cycle 1: bootstrap promotion ----
	res, err := p.RunOnce(testApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.Gen != 1 {
		t.Fatalf("bootstrap cycle: %+v", res)
	}
	if _, err := os.Stat(res.Path); err != nil {
		t.Fatalf("promoted model file missing: %v", err)
	}
	probe := more.Runs[0].Params
	run1, v1, gen1 := predictOnce(t, h, probe)
	if gen1 != 1 || v1 != 1 {
		t.Fatalf("after bootstrap: version %d generation %d, want 1/1", v1, gen1)
	}

	// A second RunOnce without new records is a quiet skip.
	if res, err := p.RunOnce(testApp, ""); err != nil || !res.Skipped {
		t.Fatalf("no-new-records cycle: %+v, %v", res, err)
	}

	// ---- cycle 2: new records arrive, candidate promoted live ----
	if _, _, err := store.ImportTable(more); err != nil {
		t.Fatal(err)
	}
	// Serve predictions concurrently with the retrain+promote cycle; the
	// registry hot-swap must never torn-read under -race. (t.Fatal is
	// test-goroutine-only, so the workers report with t.Errorf.)
	body, err := json.Marshal(map[string]any{"model": testApp, "params": probe})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("concurrent predict returned %d: %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	res, err = p.RunOnce(testApp, "")
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.Gen != 2 {
		t.Fatalf("second cycle: %+v (gate: %s)", res, res.Gate.Reason)
	}
	run2, v2, gen2 := predictOnce(t, h, probe)
	if gen2 != 2 || v2 != 2 {
		t.Fatalf("after second promotion: version %d generation %d, want 2/2", v2, gen2)
	}
	if reflect.DeepEqual(run1, run2) {
		t.Fatal("served prediction did not change after promotion")
	}

	// ---- cycle 3: strict gate rejects; incumbent keeps serving ----
	strictCfg := testPipelineConfig()
	strictCfg.Gate.AllowedRegression = -0.999 // demand a 1000x improvement
	strict, err := New(store, gensDir, strictCfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	strict.EnableObs(oreg, nil)
	// Same store, nothing new: the journal-primed trigger skips...
	if res, err := strict.RunOnce(testApp, ""); err != nil || !res.Skipped {
		t.Fatalf("reopened pipeline did not restore trigger state: %+v, %v", res, err)
	}
	// ...until kicked.
	strict.Kick(testApp, "", "")
	res, err = strict.RunOnce(testApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted || res.Gen != 3 {
		t.Fatalf("strict gate promoted: %+v", res)
	}
	entries := strict.Journal().Entries()
	last := entries[len(entries)-1]
	if last.Event != EventRejected || last.Gen != 3 || last.Gate == nil {
		t.Fatalf("rejection not journaled with evidence: %+v", last)
	}
	run3, v3, gen3 := predictOnce(t, h, probe)
	if v3 != v2 || gen3 != 2 || !reflect.DeepEqual(run2, run3) {
		t.Fatal("rejected candidate disturbed the serving incumbent")
	}
	if _, err := os.Stat(strict.ModelPath(testApp, 3)); !os.IsNotExist(err) {
		t.Fatal("rejected candidate left a generation file behind")
	}
	if lp := metricsSnapshot(t, h).Pipeline.LastPromotion; lp == nil || lp.Outcome != serving.PromotionRejected || lp.Generation != 3 {
		t.Fatalf("last promotion after the strict cycle = %+v, want rejected generation 3", lp)
	}

	// ---- rollback: one step back to generation 1, still live ----
	gen, err := strict.Rollback(testApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("Rollback restored generation %d, want 1", gen)
	}
	runRb, vRb, genRb := predictOnce(t, h, probe)
	if genRb != 1 {
		t.Fatalf("generation after rollback = %d, want 1", genRb)
	}
	if vRb != v2+1 {
		t.Fatalf("registry version after rollback = %d, want %d", vRb, v2+1)
	}
	if !reflect.DeepEqual(runRb, run1) {
		t.Fatal("rollback did not restore generation 1's predictions")
	}

	// ---- metrics: the whole story is visible on /metrics ----
	snap := metricsSnapshot(t, h)
	if snap.Pipeline.Promotions != 2 || snap.Pipeline.Rejections != 1 || snap.Pipeline.Rollbacks != 1 {
		t.Fatalf("pipeline counters = %+v, want 2 promotions, 1 rejection, 1 rollback", snap.Pipeline)
	}
	if lp := snap.Pipeline.LastPromotion; lp == nil || lp.Outcome != serving.PromotionRollback || lp.Generation != 1 {
		t.Fatalf("last promotion = %+v, want rollback to generation 1", snap.Pipeline.LastPromotion)
	}
	found := false
	for _, ms := range snap.ModelStatus {
		if ms.Name == testApp && ms.Generation == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("model_status %+v does not show generation 1 serving", snap.ModelStatus)
	}

	// ---- restart path: a fresh registry resumes from the journal ----
	reg2 := serving.NewRegistry()
	p2, err := New(store, gensDir, testPipelineConfig(), reg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.InstallActive(); err != nil {
		t.Fatal(err)
	}
	e, ok := reg2.Get(testApp)
	if !ok || e.Generation != 1 {
		t.Fatalf("restart installed %+v, want active generation 1", e)
	}
}

// newObsServer serves reg with oreg as its metrics registry; a pipeline
// counting into the same oreg (EnableObs) shows its outcomes in the
// /metrics JSON pipeline block, as in cmd/serve.
func newObsServer(reg *serving.Registry, oreg *obs.Registry) http.Handler {
	opts := serving.DefaultOptions()
	opts.Obs = oreg
	return serving.New(reg, opts).Handler()
}

// metricsSnapshot reads the /metrics JSON document and fails unless it
// carries the pipeline section.
func metricsSnapshot(t *testing.T, h http.Handler) serving.Snapshot {
	t.Helper()
	var snap serving.Snapshot
	if code := doJSON(t, h, "GET", "/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	if snap.Pipeline == nil {
		t.Fatal("metrics has no pipeline section")
	}
	return snap
}

// TestFitFailureRejectionReachesMetrics: a store too small to fit
// yields a journaled rejection, and that rejection alone is enough for
// /metrics to show the pipeline section.
func TestFitFailureRejectionReachesMetrics(t *testing.T) {
	hist, _ := testHistories(t)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range hist.Runs[:3] {
		if _, err := store.Append(hist.ParamNames, Record{
			App: testApp, Params: run.Params, Scale: run.Scale, Runtime: run.Runtime,
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := serving.NewRegistry()
	oreg := obs.NewRegistry("repro")
	h := newObsServer(reg, oreg)
	p, err := New(store, t.TempDir(), testPipelineConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableObs(oreg, nil)
	res, err := p.RunOnce(testApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted || !strings.HasPrefix(res.Gate.Reason, "fit: ") {
		t.Fatalf("cycle over 3 records: %+v, want a fit rejection", res)
	}
	if entries := p.Journal().Entries(); len(entries) != 1 || entries[0].Event != EventRejected {
		t.Fatalf("journal = %+v, want one rejection", entries)
	}
	snap := metricsSnapshot(t, h)
	if snap.Pipeline.Rejections != 1 || snap.Pipeline.Promotions != 0 {
		t.Fatalf("pipeline counters = %+v, want 1 rejection", snap.Pipeline)
	}
	if lp := snap.Pipeline.LastPromotion; lp == nil || lp.Outcome != serving.PromotionRejected || lp.Detail != res.Gate.Reason {
		t.Fatalf("last promotion = %+v, want the fit rejection", lp)
	}
}

// TestPipelineDeterminism asserts the whole pipeline is a pure function
// of (store, seed): two runs over the same records produce byte-identical
// generation files and journals.
func TestPipelineDeterminism(t *testing.T) {
	_, more := testHistories(t)
	runPipeline := func(gensDir string) {
		t.Helper()
		store := newSeededStore(t, t.TempDir())
		p, err := New(store, gensDir, testPipelineConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunOnce(testApp, ""); err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.ImportTable(more); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunOnce(testApp, ""); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	runPipeline(dirA)
	runPipeline(dirB)

	filesA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if len(filesA) < 2 {
		t.Fatalf("pipeline produced %d files, want journal + at least one generation", len(filesA))
	}
	for _, f := range filesA {
		a, err := os.ReadFile(filepath.Join(dirA, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, f.Name()))
		if err != nil {
			t.Fatalf("run B is missing %s: %v", f.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between identical pipeline runs", f.Name())
		}
	}
}

// TestIncumbentKeptInMemory: the pipeline gates a cycle against the
// model it last installed, not against its file. With generation 1's
// file deleted or corrupted after its promotion, the next cycle still
// judges against generation 1 and promotes, and the journal is byte for
// byte that of a run that kept the file, and that of a restarted
// pipeline, which has to read the incumbent from disk. Every promoted
// entry's ModelSHA is the SHA-256 of its file.
func TestIncumbentKeptInMemory(t *testing.T) {
	_, more := testHistories(t)
	run := func(between func(p *Pipeline, gen1 string) *Pipeline) (journal []byte, gensDir string) {
		t.Helper()
		gensDir = t.TempDir()
		store := newSeededStore(t, t.TempDir())
		p, err := New(store, gensDir, testPipelineConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunOnce(testApp, "")
		if err != nil || !res.Promoted {
			t.Fatalf("cycle 1: %+v, %v", res, err)
		}
		p = between(p, res.Path)
		if _, _, err := store.ImportTable(more); err != nil {
			t.Fatal(err)
		}
		res, err = p.RunOnce(testApp, "")
		if err != nil || !res.Promoted || res.Gate.Reason == "" {
			t.Fatalf("cycle 2: %+v, %v", res, err)
		}
		raw, err := os.ReadFile(filepath.Join(gensDir, "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return raw, gensDir
	}
	kept, dir := run(func(p *Pipeline, _ string) *Pipeline { return p })
	entries := journalEntries(t, kept)
	if len(entries) != 2 || entries[1].Incumbent != 1 {
		t.Fatalf("journal %s: want two promotions, the second judged against generation 1", kept)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.ModelPath))
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(raw)); e.ModelSHA != sum {
			t.Fatalf("gen %d: journal ModelSHA %s, file hashes to %s", e.Gen, e.ModelSHA, sum)
		}
	}
	variants := map[string]func(p *Pipeline, gen1 string) *Pipeline{
		"deleted": func(p *Pipeline, gen1 string) *Pipeline {
			if err := os.Remove(gen1); err != nil {
				t.Fatal(err)
			}
			return p
		},
		"corrupted": func(p *Pipeline, gen1 string) *Pipeline {
			if err := os.WriteFile(gen1, []byte("{torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		},
		"restarted": func(p *Pipeline, _ string) *Pipeline {
			q, err := New(p.Store(), p.dir, testPipelineConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
	}
	for name, between := range variants {
		if got, _ := run(between); !bytes.Equal(got, kept) {
			t.Fatalf("%s: journal differs from the run that kept the file:\n%s\nvs\n%s", name, got, kept)
		}
	}
}

// journalEntries decodes a journal's lines.
func journalEntries(t *testing.T, raw []byte) []Entry {
	t.Helper()
	var out []Entry
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}
