package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/scalefit"
)

// runTable1 lists, per application, its parameter space and the scales of
// the experimental design — the reconstruction of the paper's setup table.
func runTable1(p Protocol) ([]*Report, error) {
	rep := &Report{
		ID:    "table1",
		Title: "Application parameter spaces and scales",
		Cols:  []string{"app", "parameter", "values"},
		Notes: []string{
			fmt.Sprintf("small scales (training history): %v", p.SmallScales),
			fmt.Sprintf("large scales (prediction targets): %v", p.LargeScales),
			fmt.Sprintf("%d training configurations (small-scale history only), %d test configurations",
				p.NumConfigs, p.NumTest),
		},
	}
	for _, app := range allApps() {
		for _, pd := range app.Space().Params {
			var desc string
			if len(pd.Values) > 0 {
				if len(pd.Values) > 6 {
					desc = fmt.Sprintf("%g .. %g (%d levels)", pd.Values[0], pd.Values[len(pd.Values)-1], len(pd.Values))
				} else {
					parts := make([]string, len(pd.Values))
					for i, v := range pd.Values {
						parts[i] = fmt.Sprintf("%g", v)
					}
					desc = strings.Join(parts, ", ")
				}
			} else {
				desc = fmt.Sprintf("[%g, %g] continuous", pd.Lo, pd.Hi)
			}
			rep.AddRow(app.Name(), pd.Name, desc)
		}
	}
	return []*Report{rep}, nil
}

// runTable2 measures interpolation-level accuracy: every regressor trained
// per small scale on (params -> runtime), evaluated on held-out configs at
// the same scale. This is the regime where i.i.d. holds and all ML methods
// are viable — the motivation row for why the interpolation level uses a
// random forest.
func runTable2(p Protocol) ([]*Report, error) {
	var reports []*Report
	for _, app := range paperApps() {
		s, err := NewSetup(app, p)
		if err != nil {
			return nil, err
		}
		m, err := newMethods(s, p.Seed+17)
		if err != nil {
			return nil, err
		}
		cols := []string{"scale", "rf (interp level)", "direct-gbrt", "direct-knn", "direct-lasso"}
		rep := &Report{
			ID:    "table2",
			Title: fmt.Sprintf("Interpolation accuracy, %s (MAPE, held-out configs)", app.Name()),
			Cols:  cols,
			Notes: []string{"expected: all methods comparable here; the forest is competitive or best — interpolation is the easy regime"},
		}
		for _, scale := range p.SmallScales {
			row := []string{fmt.Sprintf("%d", scale)}
			// interpolation level of the two-level model
			row = append(row, pct(m.mapeAt("two-level", scale)))
			for _, name := range []string{"direct-gbrt", "direct-knn", "direct-lasso"} {
				row = append(row, pct(m.mapeAt(name, scale)))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// runTable3 is the headline comparison: extrapolation MAPE at every large
// scale for the two-level model against every baseline.
func runTable3(p Protocol) ([]*Report, error) {
	var reports []*Report
	for _, app := range allApps() {
		s, err := NewSetup(app, p)
		if err != nil {
			return nil, err
		}
		m, err := newMethods(s, p.Seed+31)
		if err != nil {
			return nil, err
		}
		rep := &Report{
			ID:    "table3",
			Title: fmt.Sprintf("Extrapolation accuracy, %s (MAPE at large scales)", app.Name()),
			Cols:  append([]string{"scale"}, MethodNames...),
			Notes: []string{
				"expected: two-level lowest at every scale; bounded direct methods (rf/gbrt/knn) degrade catastrophically;",
				"direct-lasso and curve-fit follow trends but miss regime changes",
			},
		}
		for _, scale := range p.LargeScales {
			row := []string{fmt.Sprintf("%d", scale)}
			for _, name := range MethodNames {
				row = append(row, pct(m.mapeAt(name, scale)))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// runTable4 is the ablation study over the two-level model's design
// choices, evaluated at every large scale. Ablations that only exist in
// one backend run in that backend (mode column).
func runTable4(p Protocol) ([]*Report, error) {
	type variant struct {
		name   string
		mutate func(core.Config) core.Config
		// oracleCurve predicts from the measured small-scale curve instead
		// of interpolation-level predictions.
		oracleCurve bool
	}
	basis := func(c core.Config) core.Config { c.Mode = core.ModeBasis; return c }
	variants := []variant{
		{name: "full method (anchored)", mutate: func(c core.Config) core.Config { return c }},
		{name: "no clustering (K=1)", mutate: func(c core.Config) core.Config { c.Clusters = 1; return c }},
		{name: "single-task lasso", mutate: func(c core.Config) core.Config { c.SingleTask = true; return c }},
		{name: "train on measured curves", mutate: func(c core.Config) core.Config {
			c.FeaturesFromMeasurements = true
			return c
		}},
		{name: "no log-target interpolation", mutate: func(c core.Config) core.Config {
			c.NoLogInterpolation = true
			return c
		}},
		{name: "oracle: measured curve input", mutate: func(c core.Config) core.Config {
			c.FeaturesFromMeasurements = true
			return c
		}, oracleCurve: true},
		{name: "basis mode", mutate: basis},
		{name: "basis, no clustering", mutate: func(c core.Config) core.Config {
			c = basis(c)
			c.Clusters = 1
			return c
		}},
		{name: "basis, single-task", mutate: func(c core.Config) core.Config {
			c = basis(c)
			c.SingleTask = true
			return c
		}},
		{name: "basis, amdahl-only", mutate: func(c core.Config) core.Config {
			c = basis(c)
			c.Basis = []scalefit.Term{{A: -1, B: 0}}
			return c
		}},
	}

	var reports []*Report
	for _, app := range paperApps() {
		s, err := NewSetup(app, p)
		if err != nil {
			return nil, err
		}
		cols := []string{"variant"}
		for _, sc := range p.LargeScales {
			cols = append(cols, fmt.Sprintf("p=%d", sc))
		}
		rep := &Report{
			ID:    "table4",
			Title: fmt.Sprintf("Ablations, %s (MAPE)", app.Name()),
			Cols:  cols,
			Notes: []string{
				"expected: oracle-curve input is the accuracy floor; log-target interpolation matters;",
				"clustering/multitask coupling matter most in basis mode, where the shared terms ARE the model",
			},
		}
		for _, v := range variants {
			cfg := v.mutate(s.CoreConfig())
			m, err := s.FitTwoLevel(p.Seed+47, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s / %s: %w", app.Name(), v.name, err)
			}
			var ev *TwoLevelEval
			if !v.oracleCurve {
				ev = s.EvalTwoLevel(m)
			}
			row := []string{v.name}
			for li, sc := range p.LargeScales {
				var mape float64
				if v.oracleCurve {
					// The oracle extrapolates the measured curve, walking no forest.
					mape, _ = s.EvalAtScale(sc, func(_ dataset.Config, curve []float64) float64 {
						return m.PredictFromCurve(curve)[li]
					})
				} else {
					mape, _ = ev.MAPEAt(sc)
				}
				row = append(row, pct(mape))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
