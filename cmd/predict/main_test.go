package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hpcsim"
	"repro/internal/rng"
)

// fixture fits a small anchored SMG2000 model, saves it under a temp
// directory and returns its path with configurations to predict.
func fixture(t *testing.T) (string, *core.TwoLevelModel, [][]float64) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SmallScales = []int{2, 4, 8, 16, 32, 64}
	cfg.LargeScales = []int{128, 256, 512}
	cfg.Forest.Trees = 10
	cfg.CVLambdas = 4
	app := hpcsim.NewSMG()
	eng := hpcsim.NewEngine(nil, 11)
	r := rng.New(21)
	trainCfgs := app.Space().SampleLatinHypercube(r, 24)
	train, err := eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: trainCfgs, Scales: cfg.SmallScales, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	anchors, err := eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: trainCfgs[:12], Scales: cfg.LargeScales, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	train.Merge(anchors)
	m, err := core.Fit(rng.New(22), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	// Ten rows: two four-row lane groups of the blocked kernel and a
	// two-row tail.
	return path, m, app.Space().SampleLatinHypercube(rng.New(5), 10)
}

func formatRow(v []float64) []string {
	cells := make([]string, len(v))
	for i, x := range v {
		cells[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return cells
}

func runPredict(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, strings.NewReader(stdin), &out); err != nil {
		t.Fatalf("predict %v: %v", args, err)
	}
	return out.String()
}

// TestInBatchMatchesPerRow holds -in, which evaluates every row as one
// batch, to the output of predicting each configuration on its own with
// -params: the bytes must be identical in JSON and text, with and
// without an interval, and with -small and -at.
func TestInBatchMatchesPerRow(t *testing.T) {
	path, m, rows := fixture(t)
	var csv strings.Builder
	csv.WriteString(strings.Join(m.ParamNames, ",") + "\n")
	for _, row := range rows {
		csv.WriteString(strings.Join(formatRow(row), ",") + "\n")
	}
	for _, flags := range [][]string{
		{},
		{"-json"},
		{"-interval", "0.9"},
		{"-interval", "0.9", "-json"},
		{"-small"},
		{"-small", "-json", "-interval", "0.8"},
		{"-at", "256"},
	} {
		base := append([]string{"-model", path}, flags...)
		got := runPredict(t, csv.String(), append(base, "-in", "-")...)
		var want strings.Builder
		for _, row := range rows {
			want.WriteString(runPredict(t, "", append(base, "-params", strings.Join(formatRow(row), ","))...))
		}
		if got != want.String() {
			t.Errorf("flags %v: -in output differs from per-row output\n-in:\n%s\nper row:\n%s", flags, got, want.String())
		}
		if strings.Count(got, "config ")+strings.Count(got, `"params"`) != len(rows) {
			t.Errorf("flags %v: output does not hold %d configurations:\n%s", flags, len(rows), got)
		}
	}
}

// TestInBadInputPrintsNothing checks that a bad row (short, or with a
// value that is not a number) or a scale the model cannot answer fails
// the run before any configuration is printed, even when good rows come
// first.
func TestInBadInputPrintsNothing(t *testing.T) {
	path, m, rows := fixture(t)
	header := strings.Join(m.ParamNames, ",") + "\n"
	good := strings.Join(formatRow(rows[0]), ",") + "\n"
	bad := formatRow(rows[1])
	bad[1] = "abc"
	for name, c := range map[string]struct {
		csv  string
		args []string
	}{
		"short row":       {header + good + strings.Join(formatRow(rows[1][:len(rows[1])-1]), ",") + "\n", nil},
		"non-number":      {header + good + strings.Join(bad, ",") + "\n", nil},
		"unknown scale":   {header + good, []string{"-at", "300"}},
		"interval at -at": {header + good, []string{"-at", "256", "-interval", "0.9"}},
	} {
		var out bytes.Buffer
		args := append([]string{"-model", path, "-in", "-"}, c.args...)
		if err := run(args, strings.NewReader(c.csv), &out); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed before failing: %q", name, out.String())
		}
	}
}
