package core

import "fmt"

// Interval sources: how a band's width was derived.
const (
	// IntervalConformal marks a band from split-conformal calibration on
	// the pipeline's holdout slice — it carries a finite-sample coverage
	// guarantee under exchangeability.
	IntervalConformal = "conformal"
	// IntervalEnsemble marks a heuristic band from per-tree ensemble
	// spread — no coverage guarantee, used when no calibration exists or
	// the holdout is too small for the requested coverage.
	IntervalEnsemble = "ensemble"
)

// Interval is a prediction interval at one target scale.
type Interval struct {
	Scale int     `json:"scale"`
	Lo    float64 `json:"lo"`
	Mid   float64 `json:"mid"`
	Hi    float64 `json:"hi"`
	// Source is IntervalConformal or IntervalEnsemble; empty on intervals
	// built before source tracking (deserialized old responses).
	Source string `json:"source,omitempty"`
}

// NormalizeCoverage maps the public "interval" knob (serving request
// field, cmd/predict flag) to a coverage level in (0, 1). Values in
// (0, 0.5) are read as the legacy tail-quantile form q — the band
// [quantile q, quantile 1−q], i.e. coverage 1−2q — so pre-existing
// clients keep the bands they always got; values in [0.5, 1) are a
// coverage level directly.
func NormalizeCoverage(v float64) (float64, error) {
	if v <= 0 || v >= 1 {
		return 0, fmt.Errorf("core: interval %v outside (0, 1)", v)
	}
	if v < 0.5 {
		return 1 - 2*v, nil
	}
	return v, nil
}

// Intervals returns, per target scale, a band at ev.Coverage around
// ev.Runtimes. Where the model's split-conformal calibration (models the
// pipeline trains carry one) certifies the coverage for the
// configuration's cluster at a scale, the band is [mid/exp(q̂),
// mid·exp(q̂)], with conformal prediction's finite-sample guarantee.
// Elsewhere it is the ensemble band: the per-tree quantile curves at
// matching tail mass pushed through the extrapolation level, the
// midpoint clamped into it. That band reflects only the interpolation
// level's uncertainty, a lower bound on the true one. Source marks which
// band each interval is.
func (m *TwoLevelModel) Intervals(ev *Eval) []Interval {
	if ev.Coverage == 0 {
		panic("core: interval coverage 0; Evaluate with a coverage in (0, 1)")
	}
	out := make([]Interval, len(m.Cfg.LargeScales))
	var loPred, hiPred []float64 // the ensemble band, extrapolated at most once
	for i, s := range m.Cfg.LargeScales {
		mid := ev.Runtimes[i]
		if f, ok := m.Meta.Calibration.Factor(ev.Cluster, s, ev.Coverage); ok {
			out[i] = Interval{Scale: s, Lo: mid / f, Mid: mid, Hi: mid * f, Source: IntervalConformal}
			continue
		}
		if loPred == nil {
			loPred, hiPred = m.PredictFromCurve(ev.lo), m.PredictFromCurve(ev.hi)
		}
		lo, hi := loPred[i], hiPred[i]
		if lo > hi { // extrapolation can reorder the band; normalize
			lo, hi = hi, lo
		}
		if mid < lo {
			mid = lo
		}
		if mid > hi {
			mid = hi
		}
		out[i] = Interval{Scale: s, Lo: lo, Mid: mid, Hi: hi, Source: IntervalEnsemble}
	}
	return out
}

// PredictIntervalCov returns, per target scale, an interval targeting the
// given coverage level in (0, 1); see Intervals. It panics outside that
// range.
func (m *TwoLevelModel) PredictIntervalCov(params []float64, coverage float64) []Interval {
	ev := m.Evaluate(params, coverage)
	return m.Intervals(&ev)
}
