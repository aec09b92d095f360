package pipeline

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// GateConfig controls candidate-vs-incumbent evaluation.
type GateConfig struct {
	// HoldoutDenominator D carves out every configuration whose parameter
	// key hashes to 0 mod D as held-out evaluation data (~1/D of the
	// store, the same slice every cycle so the incumbent was never
	// trained on it either). <= 1 selects the default of 5.
	HoldoutDenominator int
	// AllowedRegression is the relative MAPE slack: a candidate is
	// promoted when candidateMAPE <= incumbentMAPE * (1+AllowedRegression).
	// 0 means "at least as good"; 0.05 tolerates a 5% relative
	// regression (useful when fresh data shifts the holdout); negative
	// values demand strict improvement. NaN is never promoted past a
	// finite incumbent.
	AllowedRegression float64
}

// DefaultGateConfig returns the production defaults: a 20% holdout and
// a 5% tolerated relative regression.
func DefaultGateConfig() GateConfig {
	return GateConfig{HoldoutDenominator: 5, AllowedRegression: 0.05}
}

// withDefaults fills zero fields.
func (g GateConfig) withDefaults() GateConfig {
	if g.HoldoutDenominator <= 1 {
		g.HoldoutDenominator = 5
	}
	return g
}

// ScaleMAPE is one target scale's error breakdown over the holdout.
type ScaleMAPE struct {
	Scale     int     `json:"scale"`
	Candidate float64 `json:"candidate"`
	Incumbent float64 `json:"incumbent,omitempty"`
	N         int     `json:"n"` // holdout configurations measured at this scale
}

// GateResult is the gate's verdict with its evidence.
type GateResult struct {
	Promote bool   `json:"promote"`
	Reason  string `json:"reason"`
	// Candidate and Incumbent are pooled MAPEs over every (config, scale)
	// holdout point; NaN when no point was measurable.
	Candidate float64     `json:"candidate_mape"`
	Incumbent float64     `json:"incumbent_mape,omitempty"`
	PerScale  []ScaleMAPE `json:"per_scale,omitempty"`
	// HoldoutConfigs counts held-out configurations with at least one
	// large-scale measurement.
	HoldoutConfigs int `json:"holdout_configs"`
}

// SplitHoldout deterministically partitions a table's configurations:
// a configuration lands in the holdout iff the FNV-1a hash of its
// parameter key is 0 mod denom. Every run of a configuration stays on
// one side (the unit of generalization is a configuration), and the
// split is a pure function of the parameters — independent of record
// order, store growth, and pipeline generation — so successive
// candidates and their incumbents are always judged on data none of
// them trained on.
func SplitHoldout(t *dataset.Table, denom int) (train, holdout *dataset.Table) {
	if denom <= 1 {
		denom = DefaultGateConfig().HoldoutDenominator
	}
	train = dataset.NewTable(t.App, t.ParamNames)
	holdout = dataset.NewTable(t.App, t.ParamNames)
	for _, run := range t.Runs {
		if heldOut(run.Params, denom) {
			holdout.Runs = append(holdout.Runs, run)
		} else {
			train.Runs = append(train.Runs, run)
		}
	}
	return train, holdout
}

// heldOut reports whether a configuration belongs to the holdout slice.
func heldOut(params []float64, denom int) bool {
	h := fnv.New64a()
	_, _ = h.Write([]byte(dataset.ParamKey(params))) // hash.Hash.Write never fails
	return h.Sum64()%uint64(denom) == 0
}

// EvaluateGate scores a candidate model against the incumbent (nil on
// the first cycle) on the holdout slice at the given target scales and
// renders a promote/reject verdict under cfg. Only held-out
// configurations with measured runtimes at a target scale contribute;
// the breakdown records how many that was per scale. Non-finite MAPEs
// (which drive rejection) are reported as 0 in the result so it stays
// JSON-serializable (encoding/json rejects NaN); the Reason string
// names them.
func EvaluateGate(cand, inc *core.TwoLevelModel, holdout *dataset.Table, scales []int, cfg GateConfig) GateResult {
	res := evaluateGate(cand, inc, holdout, scales, cfg)
	res.Candidate = finiteOrZero(res.Candidate)
	res.Incumbent = finiteOrZero(res.Incumbent)
	for i := range res.PerScale {
		res.PerScale[i].Candidate = finiteOrZero(res.PerScale[i].Candidate)
		res.PerScale[i].Incumbent = finiteOrZero(res.PerScale[i].Incumbent)
	}
	return res
}

// finiteOrZero maps NaN/±Inf to 0 for serialization.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func evaluateGate(cand, inc *core.TwoLevelModel, holdout *dataset.Table, scales []int, cfg GateConfig) GateResult {
	cfg = cfg.withDefaults()
	res := GateResult{Candidate: math.NaN(), Incumbent: math.NaN()}

	var candAll, incAll, trueAll []float64
	configs := holdout.GroupByConfig()
	measured := map[string]bool{}
	// Each model evaluates every held-out configuration measured at a
	// gate scale once, up front and as one batch, and answers every scale
	// from that evaluation.
	candEvals := evaluateMeasured(cand, configs, scales)
	var incEvals []core.Eval
	if inc != nil {
		incEvals = evaluateMeasured(inc, configs, scales)
	}
	for _, scale := range scales {
		var yTrue, yCand, yInc []float64
		for i, c := range configs {
			rt, ok := c.Runtimes[scale]
			if !ok {
				continue
			}
			measured[dataset.ParamKey(c.Params)] = true
			yTrue = append(yTrue, rt)
			yCand = append(yCand, predictAt(cand, &candEvals[i], scale))
			if inc != nil {
				yInc = append(yInc, predictAt(inc, &incEvals[i], scale))
			}
		}
		if len(yTrue) == 0 {
			continue
		}
		sm := ScaleMAPE{Scale: scale, N: len(yTrue), Candidate: stats.MAPE(yTrue, yCand)}
		if inc != nil {
			sm.Incumbent = stats.MAPE(yTrue, yInc)
		}
		res.PerScale = append(res.PerScale, sm)
		trueAll = append(trueAll, yTrue...)
		candAll = append(candAll, yCand...)
		incAll = append(incAll, yInc...)
	}
	res.HoldoutConfigs = len(measured)

	if len(trueAll) == 0 {
		if inc == nil {
			res.Promote = true
			res.Reason = "bootstrap: no incumbent and no large-scale holdout data"
			return res
		}
		res.Reason = "no large-scale holdout data to compare against the incumbent"
		return res
	}

	res.Candidate = stats.MAPE(trueAll, candAll)
	if inc == nil {
		if math.IsNaN(res.Candidate) || math.IsInf(res.Candidate, 0) {
			res.Reason = fmt.Sprintf("candidate MAPE %v is not finite", res.Candidate)
			return res
		}
		res.Promote = true
		res.Reason = fmt.Sprintf("bootstrap: no incumbent; candidate MAPE %.4f on %d holdout configs",
			res.Candidate, res.HoldoutConfigs)
		return res
	}
	res.Incumbent = stats.MAPE(trueAll, incAll)

	limit := res.Incumbent * (1 + cfg.AllowedRegression)
	switch {
	case math.IsNaN(res.Candidate) || math.IsInf(res.Candidate, 0):
		res.Reason = fmt.Sprintf("candidate MAPE %v is not finite", res.Candidate)
	case math.IsNaN(res.Incumbent) || math.IsInf(res.Incumbent, 0):
		// A broken incumbent loses to any finite candidate.
		res.Promote = true
		res.Reason = fmt.Sprintf("incumbent MAPE %v is not finite; candidate %.4f", res.Incumbent, res.Candidate)
	case res.Candidate <= limit:
		res.Promote = true
		res.Reason = fmt.Sprintf("candidate MAPE %.4f <= %.4f (incumbent %.4f, slack %+.0f%%)",
			res.Candidate, limit, res.Incumbent, cfg.AllowedRegression*100)
	default:
		res.Reason = fmt.Sprintf("candidate MAPE %.4f > %.4f (incumbent %.4f, slack %+.0f%%)",
			res.Candidate, limit, res.Incumbent, cfg.AllowedRegression*100)
	}
	return res
}

// evaluateMeasured evaluates m on every configuration measured at one
// of the scales, in one batch; the result is aligned with configs, and
// an entry for a configuration measured at none of them stays zero.
func evaluateMeasured(m *core.TwoLevelModel, configs []dataset.Config, scales []int) []core.Eval {
	var idx []int
	var rows [][]float64
	for i, c := range configs {
		for _, s := range scales {
			if _, ok := c.Runtimes[s]; ok {
				idx = append(idx, i)
				rows = append(rows, c.Params)
				break
			}
		}
	}
	batch := make([]core.Eval, len(rows))
	m.EvaluateBatch(rows, 0, batch)
	evs := make([]core.Eval, len(configs))
	for j, i := range idx {
		evs[i] = batch[j]
	}
	return evs
}

// predictAt answers one model at one scale from the configuration's
// evaluation. A model whose target set does not include the scale gives
// NaN, a pessimal error, instead of aborting the gate.
func predictAt(m *core.TwoLevelModel, ev *core.Eval, scale int) float64 {
	v, err := m.PredictAt(ev, scale)
	if err != nil {
		return math.NaN()
	}
	return v
}
