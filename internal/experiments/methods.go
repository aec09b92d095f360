package experiments

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// MethodNames is the presentation order of compared methods. "two-level"
// is the paper's method (anchored backend); "two-level-basis" is the
// variant that uses no large-scale history at all.
var MethodNames = []string{
	"two-level", "two-level-basis", "direct-rf", "direct-gbrt", "direct-knn", "direct-lasso", "curve-fit",
}

// methods bundles every compared method fitted on one setup's history.
type methods struct {
	setup    *Setup
	twoLevel *TwoLevelEval
	twoBasis *TwoLevelEval
	direct   map[string]baselines.Predictor
	curveFit *baselines.CurveFit
}

// newMethods fits the two-level models and every baseline on the setup,
// and evaluates the two-level models over its test configurations.
func newMethods(s *Setup, seed uint64) (*methods, error) {
	m := &methods{
		setup:    s,
		direct:   map[string]baselines.Predictor{},
		curveFit: &baselines.CurveFit{Scales: s.Protocol.SmallScales},
	}
	tl, err := s.FitTwoLevel(seed, s.CoreConfig())
	if err != nil {
		return nil, fmt.Errorf("two-level: %w", err)
	}
	m.twoLevel = s.EvalTwoLevel(tl)
	basisCfg := s.CoreConfig()
	basisCfg.Mode = core.ModeBasis
	tb, err := s.FitTwoLevel(seed, basisCfg)
	if err != nil {
		return nil, fmt.Errorf("two-level-basis: %w", err)
	}
	m.twoBasis = s.EvalTwoLevel(tb)
	for _, b := range baselines.All() {
		p, err := b.Train(rng.New(seed^0xbadc0de), s.Train)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		m.direct[b.Name] = p
	}
	return m, nil
}

// predictFn returns the prediction closure for a baseline or curve-fit
// at a scale. Unknown methods panic (programming error in an
// experiment).
func (m *methods) predictFn(name string, scale int) func(cfg dataset.Config, curve []float64) float64 {
	if name == "curve-fit" {
		return func(_ dataset.Config, curve []float64) float64 {
			v, err := m.curveFit.PredictFromCurve(curve, scale)
			if err != nil {
				return math.NaN()
			}
			return v
		}
	}
	p, ok := m.direct[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown method %q", name))
	}
	return func(cfg dataset.Config, _ []float64) float64 {
		return p.PredictAt(cfg.Params, scale)
	}
}

// pairsAt returns one method's aligned (true, predicted) runtimes at
// one scale over the test set.
func (m *methods) pairsAt(name string, scale int) (yTrue, yPred []float64) {
	switch name {
	case "two-level":
		return m.twoLevel.PairsAt(scale)
	case "two-level-basis":
		return m.twoBasis.PairsAt(scale)
	}
	return m.setup.PairsAtScale(scale, m.predictFn(name, scale))
}

// mapeAt evaluates one method's MAPE at one scale over the test set.
func (m *methods) mapeAt(name string, scale int) float64 {
	mape, n := mapeOf(m.pairsAt(name, scale))
	if n == 0 {
		return math.NaN()
	}
	return mape
}
