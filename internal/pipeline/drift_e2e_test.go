package pipeline

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/serving"
	"repro/internal/uncertainty"
)

// TestDriftKicksRetraining is the full feedback loop: a generation is
// promoted and served, measured runtimes drift away from its intervals,
// the serving monitor breaches its coverage floor, the breach kicks the
// pipeline, and the resulting cycle's journal entry names the drift
// trigger.
func TestDriftKicksRetraining(t *testing.T) {
	_, more := testHistories(t)
	store := newSeededStore(t, t.TempDir())
	reg := serving.NewRegistry()

	var p *Pipeline
	opts := serving.DefaultOptions()
	opts.Drift = uncertainty.DriftConfig{Window: 16, MinObservations: 8, Coverage: 0.75, Floor: 0.6}
	opts.OnDrift = func(model, reason, origin string) { p.Kick(model, reason, origin) }
	srv := serving.New(reg, opts)
	h := srv.Handler()

	p, err := New(store, t.TempDir(), testPipelineConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}

	// ---- bootstrap: promote generation 1 into the live registry ----
	res, err := p.RunOnce(testApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("bootstrap cycle: %+v", res)
	}

	// The promoted generation serves conformal intervals. Coverage 0.75
	// is what the fixture's 3-configuration large-scale holdout can
	// certify (ceil((3+1)*0.75) = 3 ≤ 3; anything higher honestly falls
	// back to the ensemble band).
	probe := more.Runs[0].Params
	var pr struct {
		Results []struct {
			Runtimes  []float64 `json:"runtimes"`
			Intervals []struct {
				Scale  int     `json:"scale"`
				Lo     float64 `json:"lo"`
				Hi     float64 `json:"hi"`
				Source string  `json:"source"`
			} `json:"intervals"`
		} `json:"results"`
	}
	if code := doJSON(t, h, "POST", "/v1/predict",
		map[string]any{"model": testApp, "params": probe, "interval": 0.75}, &pr); code != http.StatusOK {
		t.Fatalf("predict returned %d", code)
	}
	ivs := pr.Results[0].Intervals
	if len(ivs) != len(testLarge) {
		t.Fatalf("%d intervals", len(ivs))
	}
	conformal := 0
	for _, iv := range ivs {
		if iv.Source == "conformal" {
			conformal++
		}
	}
	if conformal == 0 {
		t.Fatalf("pipeline-promoted model served no conformal intervals: %+v", ivs)
	}

	// ---- drift: the measured world shifts 3x away from the model ----
	scale := testLarge[0]
	predicted := pr.Results[0].Runtimes[0]
	kicked := false
	for i := 0; i < 12 && !kicked; i++ {
		var or struct {
			Results []struct {
				Covered bool   `json:"covered"`
				Drift   bool   `json:"drift"`
				Reason  string `json:"reason"`
			} `json:"results"`
		}
		if code := doJSON(t, h, "POST", "/v1/observe", map[string]any{
			"model": testApp, "params": probe, "scale": scale, "runtime": predicted * 3,
		}, &or); code != http.StatusOK {
			t.Fatalf("observe returned %d", code)
		}
		if or.Results[0].Drift {
			kicked = true
			if !strings.Contains(or.Results[0].Reason, "drift") {
				t.Fatalf("breach reason %q", or.Results[0].Reason)
			}
		}
	}
	if !kicked {
		t.Fatal("12 shifted observations never breached the coverage floor")
	}

	// ---- the kick retrains without any new records ----
	res, err = p.RunOnce(testApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped {
		t.Fatalf("drift-kicked cycle was skipped: %+v", res)
	}
	if !strings.Contains(res.Reason, "drift") {
		t.Fatalf("cycle reason %q does not name the drift trigger", res.Reason)
	}

	// ---- the journal names the trigger on the cycle's entry ----
	entries := p.Journal().Entries()
	last := entries[len(entries)-1]
	if last.Gen != res.Gen {
		t.Fatalf("last journal entry gen %d, cycle gen %d", last.Gen, res.Gen)
	}
	if !strings.Contains(last.Trigger, "drift") || !strings.Contains(last.Trigger, "coverage below floor") {
		t.Fatalf("journal trigger %q does not record the drift diagnosis", last.Trigger)
	}

	// A subsequent cycle with no kick and no new records is quiet again.
	res, err = p.RunOnce(testApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped {
		t.Fatalf("post-drift cycle ran without a trigger: %+v", res)
	}
}
