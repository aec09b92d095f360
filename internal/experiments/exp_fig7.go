package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// runFig7 sweeps the amount of large-scale history (anchor count) and
// reports, at the largest target scale, the error of the two-level model
// against the strongest direct baselines. This locates the regime the
// paper targets: with scarce large-scale history the two-level model
// dominates; as large-scale runs become abundant, direct ML catches up
// because the problem degenerates to interpolation.
func runFig7(p Protocol) ([]*Report, error) {
	anchorCounts := []int{0, 10, 20, 40, 80, 150}
	if p.NumConfigs < 150 {
		anchorCounts = []int{0, 10, 20, 40}
	}
	scale := p.LargeScales[len(p.LargeScales)-1]
	var reports []*Report
	for _, app := range paperApps() {
		rep := &Report{
			ID:    "fig7",
			Title: fmt.Sprintf("MAPE at p=%d vs amount of large-scale history, %s", scale, app.Name()),
			Cols:  []string{"anchors", "mode", "two-level", "direct-rf", "direct-gbrt", "direct-lasso"},
			Notes: []string{
				"expected: two-level wins by a wide margin when anchors are scarce; direct methods close",
				"the gap only once large-scale runs are plentiful (defeating the purpose of prediction)",
			},
		}
		for _, nA := range anchorCounts {
			pp := p
			pp.NumAnchors = nA
			s, err := NewSetup(app, pp)
			if err != nil {
				return nil, err
			}
			tl, err := s.FitTwoLevel(p.Seed+131, s.CoreConfig())
			if err != nil {
				return nil, err
			}
			tlMAPE, _ := s.EvalTwoLevel(tl).MAPEAt(scale)
			row := []string{fmt.Sprintf("%d", nA), string(tl.Mode()), pct(tlMAPE)}
			for _, b := range []struct {
				name  string
				train baselines.Trainer
			}{
				{"direct-rf", baselines.TrainDirectForest},
				{"direct-gbrt", baselines.TrainDirectGBRT},
				{"direct-lasso", baselines.TrainDirectLasso},
			} {
				pr, err := b.train(rng.New(p.Seed+137), s.Train)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", b.name, err)
				}
				mape, _ := s.EvalAtScale(scale, func(c dataset.Config, _ []float64) float64 {
					return pr.PredictAt(c.Params, scale)
				})
				row = append(row, pct(mape))
			}
			rep.AddRow(row...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
