package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hpcsim"
)

// tinyProtocol keeps experiment smoke tests fast.
func tinyProtocol() Protocol {
	return Protocol{
		Seed:        7,
		NumConfigs:  40,
		NumAnchors:  16,
		NumTest:     10,
		Reps:        1,
		SmallScales: []int{2, 4, 8, 16, 32, 64},
		LargeScales: []int{128, 256},
	}
}

func TestRegistryAndByID(t *testing.T) {
	reg := Registry()
	if len(reg) != 13 {
		t.Fatalf("registry has %d experiments", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("ByID accepted unknown id")
	}
	if len(IDs()) != len(reg) {
		t.Fatal("IDs() length mismatch")
	}
}

func TestNewSetupShape(t *testing.T) {
	p := tinyProtocol()
	s, err := NewSetup(hpcsim.NewSMG(), p)
	if err != nil {
		t.Fatal(err)
	}
	// train: 40 configs × 6 small scales + 16 anchors × 2 large scales
	if want := 40*6 + 16*2; s.Train.Len() != want {
		t.Fatalf("train has %d runs, want %d", s.Train.Len(), want)
	}
	// test: 10 configs × 8 scales
	if s.Test.Len() != 10*8 {
		t.Fatalf("test has %d runs", s.Test.Len())
	}
	cfg := s.CoreConfig()
	if len(cfg.SmallScales) != 6 || len(cfg.LargeScales) != 2 {
		t.Fatalf("core config scales wrong: %+v", cfg)
	}
}

func TestNewSetupRejectsDegenerate(t *testing.T) {
	p := tinyProtocol()
	p.NumConfigs = 2
	if _, err := NewSetup(hpcsim.NewSMG(), p); err == nil {
		t.Fatal("degenerate protocol accepted")
	}
}

func TestMethodsFitAndEvaluate(t *testing.T) {
	p := tinyProtocol()
	s, err := NewSetup(hpcsim.NewLulesh(), p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMethods(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range MethodNames {
		v := m.mapeAt(name, 256)
		if v != v || v < 0 {
			t.Fatalf("%s MAPE at 256 = %v", name, v)
		}
	}
}

func TestAllExperimentsRunUnderTinyProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	p := tinyProtocol()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			reports, err := e.Run(p)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(reports) == 0 {
				t.Fatalf("%s produced no reports", e.ID)
			}
			for _, r := range reports {
				if len(r.Rows) == 0 || len(r.Cols) == 0 {
					t.Fatalf("%s produced empty report", e.ID)
				}
				out := r.String()
				if !strings.Contains(out, r.ID) {
					t.Fatalf("%s render missing id:\n%s", e.ID, out)
				}
			}
		})
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:    "x",
		Title: "demo",
		Cols:  []string{"a", "bb"},
		Notes: []string{"hello"},
	}
	r.AddRow("1", "2")
	r.AddRow("only-one") // short row padded
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: hello", "only-one"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestReportCSV(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Cols: []string{"a", "b"}}
	r.AddRow("1", "2")
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestEvalAtScaleSkipsNaN(t *testing.T) {
	p := tinyProtocol()
	s, err := NewSetup(hpcsim.NewSMG(), p)
	if err != nil {
		t.Fatal(err)
	}
	// all-NaN predictor: zero evaluated points
	_, n := s.EvalAtScale(256, func(dataset.Config, []float64) float64 {
		return math.NaN()
	})
	if n != 0 {
		t.Fatalf("NaN predictions counted: n = %d", n)
	}
	// constant predictor: every test config counted
	mape, n := s.EvalAtScale(256, func(dataset.Config, []float64) float64 {
		return 1
	})
	if n != p.NumTest || mape <= 0 {
		t.Fatalf("n = %d mape = %v", n, mape)
	}
	// unknown scale: nothing to evaluate
	if _, n := s.EvalAtScale(999, func(dataset.Config, []float64) float64 { return 1 }); n != 0 {
		t.Fatal("unknown scale evaluated points")
	}
}

// TestEvalTwoLevelMatchesPerConfigPredict holds the one batch
// evaluation against its per-configuration oracle: at every target and
// small scale, for both backends, the pairs are PairsAtScale's with
// Predict and PredictSmall, bit for bit, and a scale the model does not
// know has none.
func TestEvalTwoLevelMatchesPerConfigPredict(t *testing.T) {
	p := tinyProtocol()
	s, err := NewSetup(hpcsim.NewLulesh(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeAnchored, core.ModeBasis} {
		cfg := s.CoreConfig()
		cfg.Mode = mode
		cfg.Forest.Trees = 10
		m, err := s.FitTwoLevel(5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev := s.EvalTwoLevel(m)
		check := func(scale int, predict func(dataset.Config, []float64) float64) {
			t.Helper()
			wantTrue, wantPred := s.PairsAtScale(scale, predict)
			gotTrue, gotPred := ev.PairsAt(scale)
			if len(wantTrue) == 0 || len(gotTrue) != len(wantTrue) {
				t.Fatalf("%s p=%d: %d pairs, oracle %d", mode, scale, len(gotTrue), len(wantTrue))
			}
			for i := range wantTrue {
				if gotTrue[i] != wantTrue[i] || math.Float64bits(gotPred[i]) != math.Float64bits(wantPred[i]) {
					t.Fatalf("%s p=%d pair %d: (%v, %v), oracle (%v, %v)",
						mode, scale, i, gotTrue[i], gotPred[i], wantTrue[i], wantPred[i])
				}
			}
		}
		for li, sc := range p.LargeScales {
			check(sc, func(tc dataset.Config, _ []float64) float64 { return m.Predict(tc.Params)[li] })
		}
		for si, sc := range p.SmallScales {
			check(sc, func(tc dataset.Config, _ []float64) float64 { return m.PredictSmall(tc.Params)[si] })
		}
		if yTrue, _ := ev.PairsAt(999); len(yTrue) != 0 {
			t.Fatalf("%s: unknown scale has %d pairs", mode, len(yTrue))
		}
	}
}
