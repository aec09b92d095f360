package experiments

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
)

// runTable5 (beyond-paper extension) attaches statistical significance to
// the headline comparison: for each baseline, a paired bootstrap over the
// test configurations estimates a 95% confidence interval for
// MAPE(two-level) − MAPE(baseline) at the largest target scale. An
// interval entirely below zero means the two-level model is significantly
// more accurate on that workload; one straddling zero means the data
// cannot separate the methods.
func runTable5(p Protocol) ([]*Report, error) {
	scale := p.LargeScales[len(p.LargeScales)-1]
	const bootstraps = 2000
	var reports []*Report
	for _, app := range paperApps() {
		s, err := NewSetup(app, p)
		if err != nil {
			return nil, err
		}
		m, err := newMethods(s, p.Seed+163)
		if err != nil {
			return nil, err
		}
		rep := &Report{
			ID:    "table5",
			Title: fmt.Sprintf("Significance of the two-level advantage at p=%d, %s", scale, app.Name()),
			Cols:  []string{"baseline", "two-level MAPE", "baseline MAPE", "ΔMAPE 95% CI", "significant?"},
			Notes: []string{
				fmt.Sprintf("paired bootstrap over %d test configurations, %d resamples", p.NumTest, bootstraps),
				"Δ = two-level − baseline; CI entirely below 0 ⇒ two-level significantly better",
			},
		}
		yTrue, predTwo := m.pairsAt("two-level", scale)
		for _, name := range MethodNames {
			if name == "two-level" {
				continue
			}
			yt, predBase := m.pairsAt(name, scale)
			if len(yt) != len(yTrue) {
				// methods must be compared on identical points
				return nil, fmt.Errorf("experiments: %s evaluated %d points, two-level %d", name, len(yt), len(yTrue))
			}
			lo, hi := stats.PairedBootstrapMAPEDiff(rng.New(p.Seed+167), yTrue, predTwo, predBase, bootstraps, 0.05)
			verdict := "no"
			switch {
			case hi < 0:
				verdict = "yes (two-level better)"
			case lo > 0:
				verdict = "yes (baseline better)"
			}
			rep.AddRow(name,
				pct(stats.MAPE(yTrue, predTwo)),
				pct(stats.MAPE(yt, predBase)),
				fmt.Sprintf("[%+.1f%%, %+.1f%%]", 100*lo, 100*hi),
				verdict)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
