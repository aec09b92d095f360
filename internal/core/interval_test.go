package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/uncertainty"
)

func TestPredictIntervalOrderingAndCoverage(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 40, 120, 30, 30, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	covered, total := 0, 0
	for _, c := range test.GroupByConfig() {
		ivs := m.PredictIntervalCov(c.Params, 0.8)
		if len(ivs) != len(cfg.LargeScales) {
			t.Fatalf("%d intervals", len(ivs))
		}
		for _, iv := range ivs {
			if !(iv.Lo <= iv.Mid && iv.Mid <= iv.Hi) {
				t.Fatalf("interval not ordered: %+v", iv)
			}
			if iv.Lo <= 0 {
				t.Fatalf("non-positive interval bound: %+v", iv)
			}
			truth, ok := c.Runtimes[iv.Scale]
			if !ok {
				continue
			}
			total++
			// generous band: within the interval stretched by 2x on each side
			span := iv.Hi - iv.Lo
			if truth >= iv.Lo-span && truth <= iv.Hi+span {
				covered++
			}
		}
	}
	// the band is heuristic; require it to be at least loosely calibrated
	if frac := float64(covered) / float64(total); frac < 0.5 {
		t.Fatalf("stretched-interval coverage %.2f too low", frac)
	}
}

func TestPredictIntervalMidMatchesPredict(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 41, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := test.GroupByConfig()[0].Params
	ivs := m.PredictIntervalCov(probe, 0.6)
	pred := m.Predict(probe)
	for i, iv := range ivs {
		// Mid is the point prediction clamped into the band
		if iv.Mid != pred[i] && (pred[i] >= iv.Lo && pred[i] <= iv.Hi) {
			t.Fatalf("mid %v != prediction %v despite being inside band", iv.Mid, pred[i])
		}
	}
}

func TestPredictIntervalQuantilePanics(t *testing.T) {
	cfg := smallCfg()
	train, _ := simTables(t, 42, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cov := range []float64{0, 1, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("coverage %v did not panic", cov)
				}
			}()
			m.PredictIntervalCov([]float64{64, 64, 64, 6}, cov)
		}()
	}
}

func TestNarrowerQuantileWidensInterval(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 43, 80, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := test.GroupByConfig()[0].Params
	tight := m.PredictIntervalCov(probe, 0.5)
	wide := m.PredictIntervalCov(probe, 0.9)
	for i := range tight {
		if wide[i].Hi-wide[i].Lo < tight[i].Hi-tight[i].Lo-1e-12 {
			t.Fatalf("coverage 0.9 band narrower than coverage 0.5 at scale %d", tight[i].Scale)
		}
	}
}

func TestNormalizeCoverage(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0.1, 0.8},  // legacy tail quantile
		{0.05, 0.9}, // legacy tail quantile
		{0.5, 0.5},  // coverage directly
		{0.9, 0.9},
		{0.8, 0.8},
	}
	for _, c := range cases {
		got, err := NormalizeCoverage(c.in)
		if err != nil {
			t.Fatalf("NormalizeCoverage(%v): %v", c.in, err)
		}
		if diff := got - c.want; diff > 1e-15 || diff < -1e-15 {
			t.Fatalf("NormalizeCoverage(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []float64{0, 1, -0.2, 1.5} {
		if _, err := NormalizeCoverage(bad); err == nil {
			t.Fatalf("NormalizeCoverage(%v) accepted", bad)
		}
	}
}

func TestPredictIntervalCovFallsBackWithoutCalibration(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 44, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := test.GroupByConfig()[0].Params
	got := m.PredictIntervalCov(probe, 0.8)
	// Three scores per scale cannot certify 0.8, so a calibrated model
	// falls back at every scale and must serve the same ensemble band.
	uncertified := *m
	uncertified.Meta.Calibration = &uncertainty.Calibration{}
	for _, s := range cfg.LargeScales {
		uncertified.Meta.Calibration.Pooled = append(uncertified.Meta.Calibration.Pooled,
			uncertainty.ScaleCalib{Scale: s, Scores: []float64{0.1, 0.2, 0.3}})
	}
	want := uncertified.PredictIntervalCov(probe, 0.8)
	if len(got) != len(want) {
		t.Fatalf("%d vs %d intervals", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("uncalibrated PredictIntervalCov diverges from ensemble band: %+v vs %+v", got[i], want[i])
		}
		if got[i].Source != IntervalEnsemble {
			t.Fatalf("source = %q, want ensemble", got[i].Source)
		}
	}
}

func TestPredictIntervalCovUsesCalibration(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 45, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built calibration: every holdout residual was a factor of
	// exp(0.2+i*0.001) at the first large scale; second scale left
	// uncalibrated to exercise the per-scale fallback.
	scores := make([]float64, 30)
	for i := range scores {
		scores[i] = 0.2 + float64(i)*0.001
	}
	m.Meta.Calibration = &uncertainty.Calibration{
		Pooled: []uncertainty.ScaleCalib{{Scale: cfg.LargeScales[0], Scores: scores}},
	}
	defer func() { m.Meta.Calibration = nil }()

	probe := test.GroupByConfig()[0].Params
	ivs := m.PredictIntervalCov(probe, 0.8)
	pred := m.Predict(probe)

	iv := ivs[0]
	if iv.Source != IntervalConformal {
		t.Fatalf("calibrated scale source = %q", iv.Source)
	}
	// k = ceil(31*0.8) = 25 -> scores[24] = 0.224
	f := math.Exp(0.224)
	if math.Abs(iv.Lo-pred[0]/f) > 1e-9*pred[0] || math.Abs(iv.Hi-pred[0]*f) > 1e-9*pred[0] {
		t.Fatalf("conformal band [%v, %v], want [%v, %v]", iv.Lo, iv.Hi, pred[0]/f, pred[0]*f)
	}
	if iv.Mid != pred[0] {
		t.Fatalf("mid %v != prediction %v", iv.Mid, pred[0])
	}
	for _, iv := range ivs[1:] {
		if iv.Source != IntervalEnsemble {
			t.Fatalf("uncalibrated scale %d source = %q, want ensemble fallback", iv.Scale, iv.Source)
		}
	}
	// Higher coverage than 30 samples can certify -> whole thing falls back.
	for _, iv := range m.PredictIntervalCov(probe, 0.99) {
		if iv.Source != IntervalEnsemble {
			t.Fatalf("uncertifiable coverage served %q at scale %d", iv.Source, iv.Scale)
		}
	}
}

func TestCalibrationRoundTripsThroughPersist(t *testing.T) {
	cfg := smallCfg()
	train, _ := simTables(t, 46, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Meta.Calibration = &uncertainty.Calibration{
		Pooled: []uncertainty.ScaleCalib{{Scale: cfg.LargeScales[0], Scores: []float64{0.1, 0.2, 0.3}}},
	}
	defer func() { m.Meta.Calibration = nil }()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2.Meta.Calibration, m.Meta.Calibration) {
		t.Fatalf("calibration did not round-trip: %+v vs %+v", m2.Meta.Calibration, m.Meta.Calibration)
	}

	// A corrupt calibration must be rejected at load time.
	m.Meta.Calibration.Pooled[0].Scores = []float64{0.3, 0.1}
	buf.Reset()
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("corrupt calibration loaded without error")
	}
}
