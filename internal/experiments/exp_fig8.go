package experiments

import (
	"fmt"

	"repro/internal/hpcsim"
	"repro/internal/rng"
)

// runFig8 (beyond-paper extension) repeats the headline comparison on
// each machine preset: the method must hold up whether scaling curves are
// shaped by fat-node memory contention or by a slow interconnect — the
// platform knobs a reproduction on different hardware would vary.
func runFig8(p Protocol) ([]*Report, error) {
	scale := p.LargeScales[len(p.LargeScales)-1]
	machines := []string{"default", "fatnode", "slownet"}
	var reports []*Report
	for _, app := range paperApps() {
		rep := &Report{
			ID:    "fig8",
			Title: fmt.Sprintf("MAPE at p=%d per machine preset, %s", scale, app.Name()),
			Cols:  []string{"machine", "two-level", "two-level-basis", "direct-gbrt", "direct-lasso", "curve-fit"},
			Notes: []string{
				"expected: the two-level ordering holds on every machine; the slow network",
				"hurts every curve-based method because the up-turn moves below the observed scales",
			},
		}
		for _, mname := range machines {
			s, err := machineSetup(app, p, hpcsim.Machines()[mname])
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app.Name(), mname, err)
			}
			m, err := newMethods(s, p.Seed+149)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app.Name(), mname, err)
			}
			row := []string{mname}
			for _, method := range []string{"two-level", "two-level-basis", "direct-gbrt", "direct-lasso", "curve-fit"} {
				row = append(row, pct(m.mapeAt(method, scale)))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// machineSetup is NewSetup on an explicit machine.
func machineSetup(app hpcsim.App, p Protocol, machine *hpcsim.Machine) (*Setup, error) {
	if machine == nil {
		return nil, fmt.Errorf("experiments: nil machine")
	}
	eng := hpcsim.NewEngine(machine, p.Seed)
	sp := app.Space()
	r := rng.New(p.Seed ^ 0x5eed)
	trainCfgs := sp.SampleLatinHypercube(r, p.NumConfigs)
	testCfgs := sp.SampleLatinHypercube(r, p.NumTest)
	train, err := eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: trainCfgs, Scales: p.SmallScales, Reps: p.Reps})
	if err != nil {
		return nil, err
	}
	if p.NumAnchors > 0 {
		nAnchor := p.NumAnchors
		if nAnchor > p.NumConfigs {
			nAnchor = p.NumConfigs
		}
		anchors, err := eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: trainCfgs[:nAnchor], Scales: p.LargeScales, Reps: p.Reps})
		if err != nil {
			return nil, err
		}
		train.Merge(anchors)
	}
	allScales := append(append([]int{}, p.SmallScales...), p.LargeScales...)
	test, err := eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: testCfgs, Scales: allScales, Reps: 1})
	if err != nil {
		return nil, err
	}
	return &Setup{App: app, Engine: eng, Protocol: p, Train: train, Test: test}, nil
}
