package pipeline

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/uncertainty"
)

// calibrate computes a candidate's split-conformal calibration on the
// holdout slice: for every held-out configuration with a measurement at
// a target large scale, the absolute log-residual between the model's
// prediction and the measured runtime, bucketed per scale and per shape
// cluster. Returns nil when the holdout has no large-scale measurements
// (the model then serves ensemble-spread fallback intervals).
//
// The holdout is the parameter-hash slice the gate already uses — data
// the candidate never saw in training, which is the exchangeability
// requirement for conformal validity. Iteration order is GroupByConfig's
// deterministic ParamKey order, so the artifact is byte-reproducible.
func calibrate(m *core.TwoLevelModel, holdout *dataset.Table) *uncertainty.Calibration {
	if holdout == nil || holdout.Len() == 0 {
		return nil
	}
	scales := m.Cfg.LargeScales
	scaleIdx := make(map[int]int, len(scales))
	for i, s := range scales {
		scaleIdx[s] = i
	}
	cal := uncertainty.NewCalibrator(scales, m.Clusters())
	for _, c := range holdout.GroupByConfig() {
		predicted := false
		for s := range c.Runtimes {
			if _, ok := scaleIdx[s]; ok {
				predicted = true
				break
			}
		}
		if !predicted {
			continue // nothing measured at a target scale; skip the predict
		}
		ev := m.Evaluate(c.Params, 0)
		for s, actual := range c.Runtimes {
			if i, ok := scaleIdx[s]; ok {
				cal.Add(ev.Cluster, i, ev.Runtimes[i], actual)
			}
		}
	}
	return cal.Finish()
}
