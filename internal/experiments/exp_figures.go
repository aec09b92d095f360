package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hpcsim"
	"repro/internal/stats"
)

// runFig1 renders prediction error as a function of the target scale for
// every method — the series version of Table 3, extended to the small
// scales so the in-distribution/out-of-distribution divergence is visible.
func runFig1(p Protocol) ([]*Report, error) {
	var reports []*Report
	for _, app := range paperApps() {
		s, err := NewSetup(app, p)
		if err != nil {
			return nil, err
		}
		m, err := newMethods(s, p.Seed+61)
		if err != nil {
			return nil, err
		}
		rep := &Report{
			ID:    "fig1",
			Title: fmt.Sprintf("MAPE vs target scale, %s", app.Name()),
			Cols:  append([]string{"scale"}, MethodNames...),
			Notes: []string{
				"expected: curves overlap at small (training) scales, then the direct methods blow up",
				"past the training boundary while two-level stays flat",
			},
		}
		scales := append(append([]int{}, p.SmallScales...), p.LargeScales...)
		for _, scale := range scales {
			row := []string{fmt.Sprintf("%d", scale)}
			for _, name := range MethodNames {
				if name == "curve-fit" && isSmall(scale, p.SmallScales) {
					row = append(row, "-") // curve-fit interpolating its own inputs is meaningless
					continue
				}
				row = append(row, pct(m.mapeAt(name, scale)))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

func isSmall(scale int, small []int) bool {
	for _, s := range small {
		if s == scale {
			return true
		}
	}
	return false
}

// runFig2 sweeps the cluster count K and reports MAPE at the largest
// target scale for both backends. The basis backend is where clustering
// carries the model (the shared terms ARE the scalability knowledge), so
// its column shows the paper's "moderate K is best" curve; the anchored
// backend clusters only its anchors, capping the effective K.
func runFig2(p Protocol) ([]*Report, error) {
	scale := p.LargeScales[len(p.LargeScales)-1]
	var reports []*Report
	for _, app := range paperApps() {
		s, err := NewSetup(app, p)
		if err != nil {
			return nil, err
		}
		rep := &Report{
			ID:    "fig2",
			Title: fmt.Sprintf("MAPE at p=%d vs number of clusters, %s", scale, app.Name()),
			Cols: []string{
				"K (requested)",
				"anchored K(eff)", "anchored MAPE",
				"basis K(eff)", "basis MAPE",
			},
			Notes: []string{"expected: error drops from K=1 to a moderate K, then flattens or rises as clusters thin out"},
		}
		for _, k := range []int{1, 2, 3, 4, 5, 6, 8} {
			row := []string{fmt.Sprintf("%d", k)}
			for _, mode := range []core.Mode{core.ModeAnchored, core.ModeBasis} {
				cfg := s.CoreConfig()
				cfg.Mode = mode
				cfg.Clusters = k
				m, err := s.FitTwoLevel(p.Seed+71, cfg)
				if err != nil {
					return nil, err
				}
				mape, _ := s.EvalTwoLevel(m).MAPEAt(scale)
				row = append(row, fmt.Sprintf("%d", m.Clusters()), pct(mape))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// runFig3 is the learning curve: MAPE at the largest scale as the number
// of training configurations grows.
func runFig3(p Protocol) ([]*Report, error) {
	sizes := []int{50, 100, 150, 200, 300}
	if p.NumConfigs < 300 { // quick protocol: shrink the sweep
		sizes = []int{30, 50, 80}
	}
	var reports []*Report
	for _, app := range paperApps() {
		cols := []string{"train configs", "usable configs"}
		for _, sc := range p.LargeScales {
			cols = append(cols, fmt.Sprintf("p=%d", sc))
		}
		rep := &Report{
			ID:    "fig3",
			Title: fmt.Sprintf("Learning curve, %s", app.Name()),
			Cols:  cols,
			Notes: []string{"expected: error falls steeply then saturates after a few hundred configurations"},
		}
		for _, n := range sizes {
			pp := p
			pp.NumConfigs = n
			s, err := NewSetup(app, pp)
			if err != nil {
				return nil, err
			}
			m, err := s.FitTwoLevel(p.Seed+83, s.CoreConfig())
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", m.TrainConfigs)}
			ev := s.EvalTwoLevel(m)
			for _, sc := range pp.LargeScales {
				mape, _ := ev.MAPEAt(sc)
				row = append(row, pct(mape))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// runFig4 is the predicted-vs-actual scatter at the largest target scale.
func runFig4(p Protocol) ([]*Report, error) {
	var reports []*Report
	scale := p.LargeScales[len(p.LargeScales)-1]
	for _, app := range paperApps() {
		s, err := NewSetup(app, p)
		if err != nil {
			return nil, err
		}
		m, err := s.FitTwoLevel(p.Seed+97, s.CoreConfig())
		if err != nil {
			return nil, err
		}
		yTrue, yPred := s.EvalTwoLevel(m).PairsAt(scale)
		rep := &Report{
			ID:    "fig4",
			Title: fmt.Sprintf("Predicted vs actual at p=%d, %s", scale, app.Name()),
			Cols:  []string{"actual (s)", "predicted (s)", "APE"},
			Notes: []string{
				fmt.Sprintf("pearson=%.4f spearman=%.4f mape=%s n=%d",
					stats.Pearson(yTrue, yPred), stats.Spearman(yTrue, yPred),
					pct(stats.MAPE(yTrue, yPred)), len(yTrue)),
				"expected: points hug the diagonal across 2-3 orders of magnitude",
			},
		}
		for i := range yTrue {
			ape := 0.0
			if yTrue[i] != 0 {
				ape = abs(yTrue[i]-yPred[i]) / yTrue[i]
			}
			rep.AddRow(fmt.Sprintf("%.4g", yTrue[i]), fmt.Sprintf("%.4g", yPred[i]), pct(ape))
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// runFig5 sweeps which small scales feed the extrapolation level.
func runFig5(p Protocol) ([]*Report, error) {
	full := p.SmallScales
	subsets := [][]int{full}
	if len(full) > 4 {
		subsets = append(subsets,
			full[1:],           // drop the smallest
			full[2:],           // drop the two smallest
			full[:len(full)-1], // drop the largest small scale
			// sparse quadruple: endpoints plus two interior scales
			[]int{full[0], full[len(full)/3], full[2*len(full)/3], full[len(full)-1]},
		)
	}
	var reports []*Report
	for _, app := range paperApps() {
		cols := []string{"small scales"}
		for _, sc := range p.LargeScales {
			cols = append(cols, fmt.Sprintf("p=%d", sc))
		}
		rep := &Report{
			ID:    "fig5",
			Title: fmt.Sprintf("MAPE vs small-scale set, %s", app.Name()),
			Cols:  cols,
			Notes: []string{"expected: the largest small scales carry the most signal; dropping them hurts most"},
		}
		for _, subset := range subsets {
			pp := p
			pp.SmallScales = subset
			s, err := NewSetup(app, pp)
			if err != nil {
				return nil, err
			}
			m, err := s.FitTwoLevel(p.Seed+103, s.CoreConfig())
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%v", subset)}
			ev := s.EvalTwoLevel(m)
			for _, sc := range pp.LargeScales {
				mape, _ := ev.MAPEAt(sc)
				row = append(row, pct(mape))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// runFig6 sweeps the simulator's measurement-noise level.
func runFig6(p Protocol) ([]*Report, error) {
	sigmas := []float64{0, 0.01, 0.03, 0.05, 0.10, 0.20}
	var reports []*Report
	for _, app := range paperApps() {
		cols := []string{"noise sigma"}
		for _, sc := range p.LargeScales {
			cols = append(cols, fmt.Sprintf("p=%d", sc))
		}
		rep := &Report{
			ID:    "fig6",
			Title: fmt.Sprintf("MAPE vs measurement noise, %s", app.Name()),
			Cols:  cols,
			Notes: []string{"expected: graceful degradation — error grows roughly with sigma, no cliff"},
		}
		for _, sigma := range sigmas {
			s, err := newSetupOn(app, p, noisyEngine(p.Seed, sigma))
			if err != nil {
				return nil, err
			}
			m, err := s.FitTwoLevel(p.Seed+113, s.CoreConfig())
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%.2f", sigma)}
			ev := s.EvalTwoLevel(m)
			for _, sc := range p.LargeScales {
				mape, _ := ev.MAPEAt(sc)
				row = append(row, pct(mape))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// noisyEngine is the default engine at the given noise level; zero
// noise also turns interference off.
func noisyEngine(seed uint64, sigma float64) *hpcsim.Engine {
	eng := hpcsim.NewEngine(nil, seed)
	eng.NoiseSigma = sigma
	if sigma == 0 {
		eng.InterferenceProb = 0
	}
	return eng
}
