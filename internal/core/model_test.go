package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/hpcsim"
	"repro/internal/linmod"
	"repro/internal/rng"
	"repro/internal/scalefit"
	"repro/internal/stats"
)

// simTables builds a training table (small-scale runs for every config,
// large-scale runs for the first nAnchor configs) and a test table with
// both small and large scales for held-out configs.
func simTables(t *testing.T, seed uint64, nTrain, nAnchor, nTest int, cfg Config) (train, test *dataset.Table) {
	t.Helper()
	app := hpcsim.NewSMG()
	eng := hpcsim.NewEngine(nil, seed)
	r := rng.New(seed + 1)
	sp := app.Space()

	trainCfgs := sp.SampleLatinHypercube(r, nTrain)
	testCfgs := sp.SampleLatinHypercube(r, nTest)

	train, err := eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: trainCfgs, Scales: cfg.SmallScales, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if nAnchor > 0 {
		anchors, err := eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: trainCfgs[:nAnchor], Scales: cfg.LargeScales, Reps: 1})
		if err != nil {
			t.Fatal(err)
		}
		train.Merge(anchors)
	}
	all := append(append([]int{}, cfg.SmallScales...), cfg.LargeScales...)
	test, err = eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: testCfgs, Scales: all, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func smallCfg() Config {
	c := DefaultConfig()
	c.SmallScales = []int{2, 4, 8, 16, 32, 64}
	c.LargeScales = []int{128, 256, 512}
	c.Forest.Trees = 40
	c.CVLambdas = 8
	return c
}

// evalMAPE computes per-large-scale MAPE of the model on a test table.
func evalMAPE(t *testing.T, m *TwoLevelModel, test *dataset.Table) map[int]float64 {
	t.Helper()
	out := map[int]float64{}
	for si, s := range m.Cfg.LargeScales {
		var yTrue, yPred []float64
		for _, c := range test.GroupByConfig() {
			rt, ok := c.Runtimes[s]
			if !ok {
				continue
			}
			yTrue = append(yTrue, rt)
			yPred = append(yPred, m.Predict(c.Params)[si])
		}
		if len(yTrue) == 0 {
			t.Fatalf("no test points at scale %d", s)
		}
		out[s] = stats.MAPE(yTrue, yPred)
	}
	return out
}

func TestAnchoredEndToEnd(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 1, 150, 30, 40, cfg)
	m, err := Fit(rng.New(7), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode() != ModeAnchored {
		t.Fatalf("auto mode resolved to %q with 30 anchors", m.Mode())
	}
	if m.TrainConfigs != 150 || m.Anchors != 30 {
		t.Fatalf("TrainConfigs=%d Anchors=%d", m.TrainConfigs, m.Anchors)
	}
	mape := evalMAPE(t, m, test)
	for s, e := range mape {
		if e > 0.30 {
			t.Fatalf("anchored MAPE at scale %d = %.3f, want <= 0.30 (all: %v)", s, e, mape)
		}
	}
}

func TestBasisEndToEnd(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 2, 150, 0, 40, cfg) // zero large-scale history
	m, err := Fit(rng.New(7), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode() != ModeBasis {
		t.Fatalf("auto mode resolved to %q without anchors", m.Mode())
	}
	// The basis backend has no large-scale information at all; it gets the
	// decaying part of the curve right but must guess the magnitude of the
	// communication up-turn beyond the observed scales, so its tail error
	// is substantially higher than the anchored backend's. Guard against
	// divergence, not against that documented weakness.
	mape := evalMAPE(t, m, test)
	for s, e := range mape {
		if math.IsNaN(e) || e > 1.5 {
			t.Fatalf("basis MAPE at scale %d = %.3f (all: %v)", s, e, mape)
		}
	}
}

func TestModeAutoPrefersAnchorsWhenAvailable(t *testing.T) {
	cfg := smallCfg()
	cfg.MinAnchors = 12
	train, _ := simTables(t, 3, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode() != ModeAnchored {
		t.Fatalf("mode = %q", m.Mode())
	}
	// below the threshold, auto falls back
	train2, _ := simTables(t, 3, 60, 5, 5, cfg)
	m2, err := Fit(rng.New(1), train2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Mode() != ModeBasis {
		t.Fatalf("mode = %q with 5 anchors and MinAnchors 12", m2.Mode())
	}
}

func TestExplicitAnchoredErrorsWithoutAnchors(t *testing.T) {
	cfg := smallCfg()
	cfg.Mode = ModeAnchored
	train, _ := simTables(t, 4, 40, 0, 5, cfg)
	if _, err := Fit(rng.New(1), train, cfg); err == nil {
		t.Fatal("anchored mode accepted history without anchors")
	}
}

func TestExplicitBasisIgnoresAnchors(t *testing.T) {
	cfg := smallCfg()
	cfg.Mode = ModeBasis
	train, _ := simTables(t, 5, 60, 30, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode() != ModeBasis {
		t.Fatalf("mode = %q", m.Mode())
	}
	for _, cm := range m.ClusterModels {
		if cm.Multi != nil || cm.Single != nil {
			t.Fatal("basis mode built anchored models")
		}
	}
}

func TestBeatsDirectForestAtScale(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 6, 150, 30, 40, cfg)
	m, err := Fit(rng.New(9), train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// direct baseline: forest over (params, scale) on the SAME history
	x, y := train.XYWithScale()
	fp := forest.Defaults()
	fp.Trees = 60
	direct := forest.Fit(x, y, fp, rng.New(9))

	sBig := cfg.LargeScales[len(cfg.LargeScales)-1]
	var yTrue, yTwo, yDirect []float64
	for _, c := range test.GroupByConfig() {
		rt, ok := c.Runtimes[sBig]
		if !ok {
			continue
		}
		yTrue = append(yTrue, rt)
		pred := m.Predict(c.Params)
		yTwo = append(yTwo, pred[len(pred)-1])
		yDirect = append(yDirect, direct.Predict(append(append([]float64{}, c.Params...), float64(sBig))))
	}
	mTwo := stats.MAPE(yTrue, yTwo)
	mDirect := stats.MAPE(yTrue, yDirect)
	if mTwo >= mDirect {
		t.Fatalf("two-level MAPE %.3f not better than direct forest %.3f at scale %d", mTwo, mDirect, sBig)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 7, 60, 20, 5, cfg)
	m1, err := Fit(rng.New(5), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(rng.New(5), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := test.GroupByConfig()[0].Params
	p1 := m1.Predict(probe)
	p2 := m2.Predict(probe)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("fit not deterministic for fixed seed")
		}
	}
}

func TestAblationsRun(t *testing.T) {
	base := smallCfg()
	train, test := simTables(t, 8, 100, 30, 20, base)

	variants := map[string]func(Config) Config{
		"no-clustering": func(c Config) Config { c.Clusters = 1; return c },
		"single-task":   func(c Config) Config { c.SingleTask = true; return c },
		"measured-features": func(c Config) Config {
			c.FeaturesFromMeasurements = true
			return c
		},
		"no-log-interp":    func(c Config) Config { c.NoLogInterpolation = true; return c },
		"no-log-transform": func(c Config) Config { c.NoLogTransform = true; return c },
		"fixed-lambda":     func(c Config) Config { c.Lambda = 0.01; return c },
		"basis-mode":       func(c Config) Config { c.Mode = ModeBasis; return c },
		"basis-single-task": func(c Config) Config {
			c.Mode = ModeBasis
			c.SingleTask = true
			return c
		},
		"basis-amdahl": func(c Config) Config {
			c.Mode = ModeBasis
			c.Basis = []scalefit.Term{{A: -1, B: 0}}
			return c
		},
	}
	for name, f := range variants {
		cfg := f(base)
		m, err := Fit(rng.New(11), train, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		limit := 3.0
		if name == "basis-amdahl" {
			// Amdahl's law systematically overestimates the tail (its
			// constant absorbs every non-1/p effect); the ablation exists
			// to show exactly that, so only guard against divergence.
			limit = 10.0
		}
		mape := evalMAPE(t, m, test)
		for s, e := range mape {
			if math.IsNaN(e) || e > limit {
				t.Fatalf("%s: MAPE at %d = %v", name, s, e)
			}
		}
	}
}

func TestNoClusteringHasSingleModel(t *testing.T) {
	cfg := smallCfg()
	cfg.Clusters = 1
	train, _ := simTables(t, 9, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Clusters() != 1 || m.Centroids != nil {
		t.Fatalf("expected single cluster model, got %d (centroids %v)", m.Clusters(), m.Centroids)
	}
}

func TestClusterSizesRespectMinimum(t *testing.T) {
	cfg := smallCfg()
	cfg.Clusters = 50 // absurd
	cfg.MinClusterSize = 8
	train, _ := simTables(t, 10, 60, 40, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Clusters() > 40/8 {
		t.Fatalf("clusters = %d with 40 anchors and min size 8", m.Clusters())
	}
	for _, cm := range m.ClusterModels {
		if cm.Size < cfg.MinClusterSize {
			t.Fatalf("cluster of size %d below minimum %d", cm.Size, cfg.MinClusterSize)
		}
	}
}

func TestBasisSupportProperties(t *testing.T) {
	cfg := smallCfg()
	cfg.Mode = ModeBasis
	train, _ := simTables(t, 11, 100, 0, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < m.Clusters(); c++ {
		cm := m.ClusterModels[c]
		if len(cm.Support) == 0 {
			t.Fatalf("cluster %d has empty support", c)
		}
		if len(cm.Support) > len(cfg.SmallScales)-1 {
			t.Fatalf("cluster %d support larger than fit points allow", c)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SmallScales: []int{8, 4, 16, 32}, LargeScales: []int{128}},     // not ascending
		{SmallScales: []int{2, 4, 8, 16}, LargeScales: []int{256, 128}}, // descending large
		{SmallScales: []int{2, 4, 8, 64}, LargeScales: []int{32}},       // overlap
		{SmallScales: []int{4, 8}, LargeScales: []int{128}},             // too few small scales
		{SmallScales: []int{0, 2, 4, 8}, LargeScales: []int{128}},       // scale < 1
		{Mode: "bogus"}, // unknown mode
		{Basis: []scalefit.Term{{A: math.Inf(1)}}},              // non-finite power exponent
		{Basis: []scalefit.Term{{A: 1, B: maxLogExponent + 1}}}, // log exponent too large
		{CVLambdas: maxCVLambdas + 1},                           // selection grid too large
		{Lasso: linmod.Options{MaxIter: maxLassoIter + 1}},      // too many sweeps
	}
	tbl := dataset.NewTable("x", []string{"a"})
	tbl.Add(dataset.Run{Params: []float64{1}, Scale: 4, Runtime: 1})
	for i, c := range bad {
		if _, err := Fit(rng.New(1), tbl, c); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
}

func TestFitErrorsOnInsufficientData(t *testing.T) {
	cfg := smallCfg()
	tbl := dataset.NewTable("x", []string{"a"})
	for i := 0; i < 10; i++ {
		tbl.Add(dataset.Run{Params: []float64{float64(i)}, Scale: 2, Runtime: 1})
	}
	if _, err := Fit(rng.New(1), tbl, cfg); err == nil {
		t.Fatal("fit succeeded without complete small-scale curves")
	}
	if _, err := Fit(rng.New(1), dataset.NewTable("x", []string{"a"}), cfg); err == nil {
		t.Fatal("fit succeeded on empty table")
	}
}

func TestPredictFromCurveOracle(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 12, 150, 30, 30, cfg)
	m, err := Fit(rng.New(3), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sBig := cfg.LargeScales[len(cfg.LargeScales)-1]
	var yTrue, yOracle []float64
	for _, c := range test.GroupByConfig() {
		rt, ok := c.Runtimes[sBig]
		if !ok {
			continue
		}
		curve, ok := c.Curve(cfg.SmallScales)
		if !ok {
			continue
		}
		yTrue = append(yTrue, rt)
		po := m.PredictFromCurve(curve)
		yOracle = append(yOracle, po[len(po)-1])
	}
	if mo := stats.MAPE(yTrue, yOracle); mo > 0.3 {
		t.Fatalf("oracle-curve MAPE = %.3f", mo)
	}
}

func TestPredictAt(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 13, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := test.GroupByConfig()[0].Params
	all := m.Predict(probe)
	ev := m.Evaluate(probe, 0)
	for i, s := range cfg.LargeScales {
		v, err := m.PredictAt(&ev, s)
		if err != nil {
			t.Fatal(err)
		}
		if v != all[i] {
			t.Fatalf("PredictAt(%d) = %v, Predict[%d] = %v", s, v, i, all[i])
		}
	}
	// anchored mode rejects non-target scales
	if _, err := m.PredictAt(&ev, 777); err == nil {
		t.Fatal("anchored PredictAt accepted arbitrary scale")
	}
}

func TestBasisPredictAtArbitraryScale(t *testing.T) {
	cfg := smallCfg()
	cfg.Mode = ModeBasis
	train, test := simTables(t, 14, 80, 0, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := test.GroupByConfig()[0].Params
	ev := m.Evaluate(probe, 0)
	v, err := m.PredictAt(&ev, 777)
	if err != nil || v <= 0 {
		t.Fatalf("basis PredictAt(777) = %v, %v", v, err)
	}
	if _, err := m.PredictAt(&ev, 0); err == nil {
		t.Fatal("accepted scale 0")
	}
}

func TestPredictionsPositiveAndFinite(t *testing.T) {
	for _, mode := range []Mode{ModeAnchored, ModeBasis} {
		cfg := smallCfg()
		cfg.Mode = mode
		nAnchor := 0
		if mode == ModeAnchored {
			nAnchor = 30
		}
		train, test := simTables(t, 15, 100, nAnchor, 30, cfg)
		m, err := Fit(rng.New(1), train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range test.GroupByConfig() {
			for _, v := range m.Predict(c.Params) {
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-positive/non-finite prediction %v", mode, v)
				}
			}
		}
	}
}

func TestPredictFromCurvePanicsOnBadLength(t *testing.T) {
	cfg := smallCfg()
	train, _ := simTables(t, 16, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.PredictFromCurve([]float64{1, 2})
}

func TestAssignClusterInRange(t *testing.T) {
	cfg := smallCfg()
	train, test := simTables(t, 17, 120, 40, 10, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range test.GroupByConfig() {
		cl := m.AssignCluster(c.Params)
		if cl < 0 || cl >= m.Clusters() {
			t.Fatalf("cluster %d out of range [0, %d)", cl, m.Clusters())
		}
	}
}

func TestSaveLoadRoundTripBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeAnchored, ModeBasis} {
		cfg := smallCfg()
		cfg.Mode = mode
		nAnchor := 0
		if mode == ModeAnchored {
			nAnchor = 20
		}
		train, test := simTables(t, 18, 60, nAnchor, 10, cfg)
		m, err := Fit(rng.New(1), train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for _, c := range test.GroupByConfig() {
			p1 := m.Predict(c.Params)
			p2 := got.Predict(c.Params)
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("%s: loaded model predicts differently", mode)
				}
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	cfg := smallCfg()
	train, _ := simTables(t, 19, 60, 20, 5, cfg)
	m, err := Fit(rng.New(1), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"version": 99, "model": null}`,
		`{"version": 1, "model": null}`,
		`{"version": 1, "model": {"Cfg": {"SmallScales": [2,4,8,16]}, "Interp": []}}`,
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestAnchoredBeatsBasisWhenAnchorsExist(t *testing.T) {
	// the anchored backend has strictly more information; it should win
	cfg := smallCfg()
	train, test := simTables(t, 20, 150, 40, 40, cfg)

	ca := cfg
	ca.Mode = ModeAnchored
	ma, err := Fit(rng.New(2), train, ca)
	if err != nil {
		t.Fatal(err)
	}
	cb := cfg
	cb.Mode = ModeBasis
	mb, err := Fit(rng.New(2), train, cb)
	if err != nil {
		t.Fatal(err)
	}
	sBig := cfg.LargeScales[len(cfg.LargeScales)-1]
	ea := evalMAPE(t, ma, test)[sBig]
	eb := evalMAPE(t, mb, test)[sBig]
	if ea > eb {
		t.Fatalf("anchored (%.3f) worse than basis (%.3f) despite anchors", ea, eb)
	}
}
