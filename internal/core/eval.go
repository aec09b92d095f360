package core

import (
	"fmt"
	"math"
)

// Eval is one configuration's pass through the two-level model: the
// interpolation level's small-scale curve, the scaling-behaviour cluster
// that curve falls into, and the extrapolation level's runtimes at every
// target scale. Evaluate builds it walking each forest once; PredictAt
// and Intervals answer from it without walking again.
type Eval struct {
	// Coverage is the interval coverage Evaluate prepared for; 0 when no
	// interval was asked for.
	Coverage float64
	// Small holds the interpolated runtimes, aligned with Cfg.SmallScales.
	Small []float64
	// Cluster is the cluster Small's shape is assigned to.
	Cluster int
	// Runtimes holds the extrapolated runtimes, aligned with
	// Cfg.LargeScales.
	Runtimes []float64

	// lo and hi are the small-scale curves at the per-tree quantiles
	// (1-Coverage)/2 and 1-(1-Coverage)/2; nil unless some target scale
	// needs the ensemble band.
	lo, hi []float64
}

// Evaluate runs the two-level model once for a configuration: each
// interpolation forest is walked once, the resulting curve picks the
// cluster, and the cluster's model extrapolates it to every target
// scale. coverage is 0 for a point prediction, or the level in (0, 1)
// that Intervals will be asked for; when a target scale has no conformal
// factor at that level, the same walk also keeps the per-tree quantile
// curves the ensemble band is built from, and the mean it returns is
// bit-identical to the plain walk.
func (m *TwoLevelModel) Evaluate(params []float64, coverage float64) Eval {
	if coverage < 0 || coverage >= 1 {
		panic(fmt.Sprintf("core: interval coverage %v outside [0, 1)", coverage))
	}
	k := len(m.compiled)
	ev := Eval{Coverage: coverage, Small: make([]float64, k)}
	if !m.needsBand(coverage) {
		m.PredictSmallInto(params, ev.Small)
	} else {
		ev.lo, ev.hi = make([]float64, k), make([]float64, k)
		q := (1 - coverage) / 2
		qs := [2]float64{q, 1 - q}
		var band [2]float64
		var scratch []float64
		for i, f := range m.compiled {
			if n := f.E.NumTrees(); len(scratch) < n {
				scratch = make([]float64, n)
			}
			mid := f.PredictQuantilesInto(params, qs[:], scratch, band[:])
			lo, hi := band[0], band[1]
			if m.Cfg.LogInterpolation {
				lo, mid, hi = math.Exp(lo), math.Exp(mid), math.Exp(hi)
			}
			ev.lo[i], ev.Small[i], ev.hi[i] = lo, mid, hi
		}
	}
	ev.Cluster = m.assign(ev.Small)
	ev.Runtimes = m.extrapolateInto(ev.Cluster, ev.Small, make([]float64, len(m.Cfg.LargeScales)))
	return ev
}

// needsBand reports whether an interval at coverage falls back to the
// ensemble band at some target scale: always without a calibration, and
// wherever the pooled scores cannot certify the coverage. Factor falls
// back to the pooled scores, so a scale they certify has a conformal
// factor in every cluster.
func (m *TwoLevelModel) needsBand(coverage float64) bool {
	if coverage == 0 {
		return false
	}
	for _, s := range m.Cfg.LargeScales {
		if _, ok := m.Meta.Calibration.Factor(-1, s, coverage); !ok {
			return true
		}
	}
	return false
}

// PredictAt returns an evaluation's runtime at one scale. In ModeAnchored
// the scale must be one of Cfg.LargeScales; ModeBasis extrapolates the
// evaluation's curve and cluster to any scale >= 1.
func (m *TwoLevelModel) PredictAt(ev *Eval, scale int) (float64, error) {
	for i, s := range m.Cfg.LargeScales {
		if s == scale {
			return ev.Runtimes[i], nil
		}
	}
	if m.Cfg.Mode == ModeAnchored {
		return 0, fmt.Errorf("core: scale %d is not an anchored-model target %v", scale, m.Cfg.LargeScales)
	}
	if scale < 1 {
		return 0, fmt.Errorf("core: scale %d < 1", scale)
	}
	return m.predictBasisAt(ev.Cluster, ev.Small, scale), nil
}
