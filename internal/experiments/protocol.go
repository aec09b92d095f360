// Package experiments reconstructs the paper's evaluation: every table
// and figure listed in DESIGN.md is an Experiment that generates its
// workload on the simulated platform, trains the two-level model and the
// baselines, and renders the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hpcsim"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Protocol fixes the experimental design shared by the experiments:
// how much history exists, which scales are "small" (abundant history)
// and "large" (prediction targets), and how test configurations are drawn.
type Protocol struct {
	Seed uint64
	// NumConfigs is the number of distinct training configurations with
	// small-scale history.
	NumConfigs int
	// NumAnchors is the number of those configurations whose history also
	// includes large-scale runs — the scarce big jobs a real history
	// contains. The two-level anchored backend and every baseline see the
	// SAME table, anchors included; scarcity is what separates them.
	// Zero means no large-scale history anywhere (basis-mode regime).
	NumAnchors int
	// NumTest is the number of held-out configurations evaluated.
	NumTest int
	// Reps is the number of repeated measurements per (config, scale).
	Reps int

	SmallScales []int
	LargeScales []int
}

// DefaultProtocol is the full-size experimental design.
func DefaultProtocol(seed uint64) Protocol {
	return Protocol{
		Seed:        seed,
		NumConfigs:  600,
		NumAnchors:  30,
		NumTest:     60,
		Reps:        3,
		SmallScales: []int{2, 4, 8, 16, 32, 64},
		LargeScales: []int{128, 256, 512, 1024},
	}
}

// QuickProtocol is a reduced design for smoke tests and benchmarks.
func QuickProtocol(seed uint64) Protocol {
	return Protocol{
		Seed:        seed,
		NumConfigs:  80,
		NumAnchors:  20,
		NumTest:     25,
		Reps:        1,
		SmallScales: []int{2, 4, 8, 16, 32, 64},
		LargeScales: []int{128, 256, 512},
	}
}

// Setup is one application's prepared data under a protocol.
type Setup struct {
	App      hpcsim.App
	Engine   *hpcsim.Engine
	Protocol Protocol
	// Train has small-scale runs for every training configuration plus
	// large-scale runs for the NumAnchors anchor configurations.
	Train *dataset.Table
	// Test has runs at every small AND large scale for held-out
	// configurations (ground truth for evaluation, measured curves for
	// the curve-fit baseline and the oracle ablation).
	Test *dataset.Table
}

// NewSetup generates the history for one application under the protocol.
func NewSetup(app hpcsim.App, p Protocol) (*Setup, error) {
	return newSetupOn(app, p, hpcsim.NewEngine(nil, p.Seed))
}

// newSetupOn is NewSetup on an explicit engine: a machine preset or a
// noise level other than the default.
func newSetupOn(app hpcsim.App, p Protocol, eng *hpcsim.Engine) (*Setup, error) {
	if p.NumConfigs < 6 || p.NumTest < 1 {
		return nil, fmt.Errorf("experiments: degenerate protocol %+v", p)
	}
	r := rng.New(p.Seed ^ 0x5eed)
	sp := app.Space()

	trainCfgs := sp.SampleLatinHypercube(r, p.NumConfigs)
	testCfgs := sp.SampleLatinHypercube(r, p.NumTest)

	train, err := eng.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: trainCfgs, Scales: p.SmallScales, Reps: p.Reps,
	})
	if err != nil {
		return nil, err
	}
	if p.NumAnchors > 0 {
		nAnchor := p.NumAnchors
		if nAnchor > p.NumConfigs {
			nAnchor = p.NumConfigs
		}
		anchors, err := eng.GenerateHistory(app, hpcsim.HistorySpec{
			Configs: trainCfgs[:nAnchor], Scales: p.LargeScales, Reps: p.Reps,
		})
		if err != nil {
			return nil, err
		}
		train.Merge(anchors)
	}

	allScales := append(append([]int{}, p.SmallScales...), p.LargeScales...)
	test, err := eng.GenerateHistory(app, hpcsim.HistorySpec{
		Configs: testCfgs, Scales: allScales, Reps: 1,
	})
	if err != nil {
		return nil, err
	}
	return &Setup{App: app, Engine: eng, Protocol: p, Train: train, Test: test}, nil
}

// CoreConfig returns the two-level model configuration matching the
// protocol's scales.
func (s *Setup) CoreConfig() core.Config {
	c := core.DefaultConfig()
	c.SmallScales = append([]int{}, s.Protocol.SmallScales...)
	c.LargeScales = append([]int{}, s.Protocol.LargeScales...)
	return c
}

// FitTwoLevel trains the paper's model on the setup's history.
func (s *Setup) FitTwoLevel(seed uint64, cfg core.Config) (*core.TwoLevelModel, error) {
	return core.Fit(rng.New(seed), s.Train, cfg)
}

// EvalAtScale computes MAPE of arbitrary per-config predictions at one
// large scale over the test set. predict receives the configuration and
// its measured small-scale curve (for curve-based methods) and returns
// the predicted runtime; returning NaN skips the point.
func (s *Setup) EvalAtScale(scale int, predict func(cfg dataset.Config, curve []float64) float64) (float64, int) {
	return mapeOf(s.PairsAtScale(scale, predict))
}

// PairsAtScale returns aligned (true, predicted) runtimes at one scale,
// under EvalAtScale's rules for which configurations count.
func (s *Setup) PairsAtScale(scale int, predict func(cfg dataset.Config, curve []float64) float64) (yTrue, yPred []float64) {
	cfgs, curves := s.testCurves()
	return pairsAt(cfgs, scale, func(i int) float64 { return predict(cfgs[i], curves[i]) })
}

// testCurves returns the test configurations that have a measured
// small-scale curve, in GroupByConfig order, with those curves.
func (s *Setup) testCurves() (cfgs []dataset.Config, curves [][]float64) {
	for _, c := range s.Test.GroupByConfig() {
		if curve, ok := c.Curve(s.Protocol.SmallScales); ok {
			cfgs = append(cfgs, c)
			curves = append(curves, curve)
		}
	}
	return cfgs, curves
}

// pairsAt pairs each configuration's measured runtime at scale with
// predict(i), its prediction; configurations not measured at scale and
// NaN predictions are skipped.
func pairsAt(cfgs []dataset.Config, scale int, predict func(i int) float64) (yTrue, yPred []float64) {
	for i, c := range cfgs {
		rt, ok := c.Runtimes[scale]
		if !ok {
			continue
		}
		p := predict(i)
		if math.IsNaN(p) {
			continue
		}
		yTrue = append(yTrue, rt)
		yPred = append(yPred, p)
	}
	return yTrue, yPred
}

// mapeOf is the MAPE of aligned pairs and their count; 0, 0 when there
// are none.
func mapeOf(yTrue, yPred []float64) (float64, int) {
	if len(yTrue) == 0 {
		return 0, 0
	}
	return stats.MAPE(yTrue, yPred), len(yTrue)
}

// TwoLevelEval is a fitted two-level model evaluated once over a setup's
// test configurations, so every scale's error reads the same pass.
type TwoLevelEval struct {
	model *core.TwoLevelModel
	cfgs  []dataset.Config
	evs   []core.Eval
}

// EvalTwoLevel evaluates m over the test configurations PairsAtScale
// counts, in its order, with one core.EvaluateBatch.
func (s *Setup) EvalTwoLevel(m *core.TwoLevelModel) *TwoLevelEval {
	cfgs, _ := s.testCurves()
	rows := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		rows[i] = c.Params
	}
	evs := make([]core.Eval, len(rows))
	m.EvaluateBatch(rows, 0, evs)
	return &TwoLevelEval{model: m, cfgs: cfgs, evs: evs}
}

// PairsAt is PairsAtScale for the evaluated model: a target scale reads
// the extrapolated runtime, a small scale the interpolation level's, and
// any other scale has no pairs.
func (e *TwoLevelEval) PairsAt(scale int) (yTrue, yPred []float64) {
	predict := func(int) float64 { return math.NaN() }
	if li := slices.Index(e.model.Cfg.LargeScales, scale); li >= 0 {
		predict = func(i int) float64 { return e.evs[i].Runtimes[li] }
	} else if si := slices.Index(e.model.Cfg.SmallScales, scale); si >= 0 {
		predict = func(i int) float64 { return e.evs[i].Small[si] }
	}
	return pairsAt(e.cfgs, scale, predict)
}

// MAPEAt is EvalAtScale for the evaluated model.
func (e *TwoLevelEval) MAPEAt(scale int) (float64, int) {
	return mapeOf(e.PairsAt(scale))
}
