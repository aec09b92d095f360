package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/uncertainty"
)

// TestFitInterpParallelByteIdentical proves the parallel per-scale
// interpolation fit is invisible in the artifact: fitting the same data
// with the goroutine fan-out and with the sequential loop must produce
// byte-identical serialized models. The pre-split RNG streams (one per
// scale, drawn in scale order before any goroutine starts) are what
// makes this hold regardless of scheduling.
func TestFitInterpParallelByteIdentical(t *testing.T) {
	cfg := smallCfg()
	cfg.Forest.Trees = 12
	train, _ := simTables(t, 31, 30, 15, 1, cfg)

	fit := func() []byte {
		m, err := Fit(rng.New(11), train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	par := fit()
	interpFitParallel = false
	defer func() { interpFitParallel = true }()
	seq := fit()
	if !bytes.Equal(par, seq) {
		t.Fatalf("parallel fit artifact differs from sequential fit: %d vs %d bytes", len(par), len(seq))
	}
}

// pointerSmall is PredictSmall evaluated through the pointer forests in
// m.Interp: the oracle the compiled path must match bit for bit.
func pointerSmall(m *TwoLevelModel, p []float64) []float64 {
	out := make([]float64, len(m.Interp))
	for i, f := range m.Interp {
		out[i] = f.Predict(p)
		if m.Cfg.LogInterpolation {
			out[i] = math.Exp(out[i])
		}
	}
	return out
}

// pointerInterval is PredictInterval evaluated through the pointer
// forests' per-tree quantiles.
func pointerInterval(m *TwoLevelModel, p []float64, q float64) []Interval {
	var curves [3][]float64 // lo, mid, hi small-scale curves
	for c := range curves {
		curves[c] = make([]float64, len(m.Interp))
	}
	for i, f := range m.Interp {
		band := make([]float64, 2)
		mid := f.PredictQuantilesInto(p, []float64{q, 1 - q}, nil, band)
		for c, v := range [3]float64{band[0], mid, band[1]} {
			if m.Cfg.LogInterpolation {
				v = math.Exp(v)
			}
			curves[c][i] = v
		}
	}
	lo, mid, hi := m.PredictFromCurve(curves[0]), m.PredictFromCurve(curves[1]), m.PredictFromCurve(curves[2])
	out := make([]Interval, len(m.Cfg.LargeScales))
	for i, s := range m.Cfg.LargeScales {
		l, h := min(lo[i], hi[i]), max(lo[i], hi[i])
		out[i] = Interval{Scale: s, Lo: l, Mid: min(max(mid[i], l), h), Hi: h, Source: IntervalEnsemble}
	}
	return out
}

// pointerIntervalCov is PredictIntervalCov built on the pointer oracles.
func pointerIntervalCov(m *TwoLevelModel, p []float64, coverage float64) []Interval {
	out := pointerInterval(m, p, (1-coverage)/2)
	cal := m.Meta.Calibration
	if cal == nil {
		return out
	}
	curve := pointerSmall(m, p)
	cluster := m.assign(curve)
	mid := m.PredictFromCurve(curve)
	for i, s := range m.Cfg.LargeScales {
		if f, ok := cal.Factor(cluster, s, coverage); ok {
			out[i] = Interval{Scale: s, Lo: mid[i] / f, Mid: mid[i], Hi: mid[i] * f, Source: IntervalConformal}
		}
	}
	return out
}

// checkAgainstPointer asserts every prediction surface of m is
// bit-identical to the pointer-forest oracle on each probe.
func checkAgainstPointer(t *testing.T, m *TwoLevelModel, probes [][]float64) {
	t.Helper()
	for _, p := range probes {
		small := pointerSmall(m, p)
		for i, v := range m.PredictSmall(p) {
			if v != small[i] {
				t.Fatalf("PredictSmall(%v)[%d]: compiled %v != pointer %v", p, i, v, small[i])
			}
		}
		pred := m.PredictFromCurve(small)
		for i, v := range m.Predict(p) {
			if v != pred[i] {
				t.Fatalf("Predict(%v)[%d]: compiled %v != pointer %v", p, i, v, pred[i])
			}
		}
		ivs := pointerInterval(m, p, 0.1)
		for i, iv := range m.PredictInterval(p, 0.1) {
			if iv != ivs[i] {
				t.Fatalf("PredictInterval(%v)[%d]: compiled %+v != pointer %+v", p, i, iv, ivs[i])
			}
		}
		cov := pointerIntervalCov(m, p, 0.8)
		for i, iv := range m.PredictIntervalCov(p, 0.8) {
			if iv != cov[i] {
				t.Fatalf("PredictIntervalCov(%v)[%d]: compiled %+v != pointer %+v", p, i, iv, cov[i])
			}
		}
		if got, want := m.AssignCluster(p), m.assign(small); got != want {
			t.Fatalf("AssignCluster(%v): compiled %d != pointer %d", p, got, want)
		}
	}
}

// fitCompiled fits a model in the given mode, attaches a hand-built
// calibration covering the first large scale (so PredictIntervalCov
// exercises both its conformal and its ensemble-fallback branches), and
// returns it with a handful of held-out probes.
func fitCompiled(t *testing.T, mode Mode) (*TwoLevelModel, [][]float64) {
	t.Helper()
	cfg := smallCfg()
	cfg.Forest.Trees = 12
	cfg.Mode = mode
	train, test := simTables(t, 33, 40, 20, 6, cfg)
	m, err := Fit(rng.New(5), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, 30)
	for i := range scores {
		scores[i] = 0.2 + float64(i)*0.001
	}
	m.Meta.Calibration = &uncertainty.Calibration{
		Pooled: []uncertainty.ScaleCalib{{Scale: cfg.LargeScales[0], Scores: scores}},
	}
	var probes [][]float64
	for _, c := range test.GroupByConfig() {
		probes = append(probes, c.Params)
	}
	return m, probes
}

// TestCompiledModelPredictionsIdentical asserts every prediction surface
// of a freshly fitted model — which Fit compiles — is bit-identical to
// the same computation through the pointer forests, in both modes.
func TestCompiledModelPredictionsIdentical(t *testing.T) {
	for _, mode := range []Mode{ModeAnchored, ModeBasis} {
		t.Run(string(mode), func(t *testing.T) {
			m, probes := fitCompiled(t, mode)
			checkAgainstPointer(t, m, probes)
		})
	}
}

// TestCompileSurvivesRoundtrip: Read compiles, so a loaded model matches
// the pointer oracle too, and the compiled form is derived state that
// never serializes — Write→Read→Write is byte-identical.
func TestCompileSurvivesRoundtrip(t *testing.T) {
	for _, mode := range []Mode{ModeAnchored, ModeBasis} {
		t.Run(string(mode), func(t *testing.T) {
			m, probes := fitCompiled(t, mode)
			var first, second bytes.Buffer
			if err := m.Write(&first); err != nil {
				t.Fatal(err)
			}
			loaded, err := Read(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstPointer(t, loaded, probes)
			if err := loaded.Write(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("Write→Read→Write changed the artifact: %d vs %d bytes", first.Len(), second.Len())
			}
		})
	}
}

// TestUnevenForestsPredict: a model file may hold interpolation forests
// of different sizes. The interval path reuses one per-tree scratch
// buffer across forests and must grow it rather than panic.
func TestUnevenForestsPredict(t *testing.T) {
	m, probes := fitCompiled(t, ModeAnchored)
	var raw bytes.Buffer
	if err := m.Write(&raw); err != nil {
		t.Fatal(err)
	}
	var f modelFile
	if err := json.Unmarshal(raw.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	f.Model.Interp[0].Trees = f.Model.Interp[0].Trees[:3]
	uneven, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(uneven))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstPointer(t, loaded, probes)
}
