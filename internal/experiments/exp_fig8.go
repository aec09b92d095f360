package experiments

import (
	"fmt"

	"repro/internal/hpcsim"
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
			machine := hpcsim.Machines()[mname]
			if machine == nil {
				return nil, fmt.Errorf("experiments: unknown machine %q", mname)
			}
			s, err := newSetupOn(app, p, hpcsim.NewEngine(machine, p.Seed))
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
