package dataset

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

func sampleTable() *Table {
	t := NewTable("toy", []string{"a", "b"})
	t.Add(Run{Params: []float64{1, 2}, Scale: 4, Runtime: 10})
	t.Add(Run{Params: []float64{1, 2}, Scale: 8, Runtime: 6})
	t.Add(Run{Params: []float64{3, 4}, Scale: 4, Runtime: 20})
	t.Add(Run{Params: []float64{3, 4}, Scale: 8, Runtime: 12})
	t.Add(Run{Params: []float64{3, 4}, Scale: 8, Runtime: 14}) // repeat
	return t
}

func TestAddValidatesWidth(t *testing.T) {
	tb := NewTable("x", []string{"a"})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong width")
		}
	}()
	tb.Add(Run{Params: []float64{1, 2}})
}

func TestScales(t *testing.T) {
	got := sampleTable().Scales()
	if !reflect.DeepEqual(got, []int{4, 8}) {
		t.Fatalf("Scales = %v", got)
	}
}

func TestFilterScale(t *testing.T) {
	f := sampleTable().FilterScale(4)
	if f.Len() != 2 {
		t.Fatalf("FilterScale(4) has %d runs", f.Len())
	}
	for _, r := range f.Runs {
		if r.Scale != 4 {
			t.Fatal("wrong scale survived filter")
		}
	}
}

func TestXY(t *testing.T) {
	x, y := sampleTable().XY()
	if x.Rows != 5 || x.Cols != 2 {
		t.Fatalf("XY shape %dx%d", x.Rows, x.Cols)
	}
	if x.At(2, 0) != 3 || y[2] != 20 {
		t.Fatal("XY content wrong")
	}
}

func TestXYWithScale(t *testing.T) {
	x, y := sampleTable().XYWithScale()
	if x.Cols != 3 {
		t.Fatalf("XYWithScale cols = %d", x.Cols)
	}
	if x.At(1, 2) != 8 || y[1] != 6 {
		t.Fatal("scale column wrong")
	}
}

func TestGroupByConfig(t *testing.T) {
	cfgs := sampleTable().GroupByConfig()
	if len(cfgs) != 2 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	// repeated (3,4)@8 should average to 13
	var c34 *Config
	for i := range cfgs {
		if cfgs[i].Params[0] == 3 {
			c34 = &cfgs[i]
		}
	}
	if c34 == nil {
		t.Fatal("config (3,4) missing")
	}
	if c34.Runtimes[8] != 13 {
		t.Fatalf("averaged runtime = %v", c34.Runtimes[8])
	}
}

func TestConfigCurve(t *testing.T) {
	cfgs := sampleTable().GroupByConfig()
	curve, ok := cfgs[0].Curve([]int{4, 8})
	if !ok || len(curve) != 2 {
		t.Fatalf("Curve = %v ok=%v", curve, ok)
	}
	if _, ok := cfgs[0].Curve([]int{4, 16}); ok {
		t.Fatal("Curve found missing scale")
	}
}

func TestKFoldPartition(t *testing.T) {
	r := rng.New(2)
	folds := KFold(r, 10, 3)
	if len(folds) != 3 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		if len(f.Train)+len(f.Test) != 10 {
			t.Fatal("fold does not cover all rows")
		}
		inTest := map[int]bool{}
		for _, i := range f.Test {
			seen[i]++
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatal("row in both train and test")
			}
		}
	}
	for i := 0; i < 10; i++ {
		if seen[i] != 1 {
			t.Fatalf("row %d appears in %d test folds", i, seen[i])
		}
	}
}

func TestKFoldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	KFold(rng.New(1), 3, 5)
}

func TestMerge(t *testing.T) {
	a := sampleTable()
	b := sampleTable()
	n := a.Len()
	a.Merge(b)
	if a.Len() != 2*n {
		t.Fatal("Merge lost runs")
	}
}

func TestMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sampleTable().Merge(NewTable("x", []string{"other"}))
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sampleTable()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "toy" || !reflect.DeepEqual(got.ParamNames, tb.ParamNames) {
		t.Fatalf("metadata mismatch: %q %v", got.App, got.ParamNames)
	}
	if !reflect.DeepEqual(got.Runs, tb.Runs) {
		t.Fatalf("runs mismatch:\n%v\n%v", got.Runs, tb.Runs)
	}
}

func TestCSVRoundTripPrecision(t *testing.T) {
	tb := NewTable("p", []string{"x"})
	tb.Add(Run{Params: []float64{math.Pi}, Scale: 1024, Runtime: 1e-9})
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs[0].Params[0] != math.Pi || got.Runs[0].Runtime != 1e-9 {
		t.Fatal("float precision lost in round trip")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                                   // empty
		"a,b\n1,2\n",                         // header missing scale,runtime
		"#app,x\na,scale,runtime\nbad,2,3\n", // bad float
		"#app,x\na,scale,runtime\n1,2.5,3\n", // bad scale int
		"#app,x\na,scale,runtime\n1,2\n",     // short record
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("case %d: no error for %q", i, c)
		}
	}
}

func TestReadCSVWithoutAppRecord(t *testing.T) {
	in := "a,scale,runtime\n1,2,3.5\n"
	tb, err := ReadCSV(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.App != "" || tb.Len() != 1 || tb.Runs[0].Runtime != 3.5 {
		t.Fatalf("parsed %+v", tb)
	}
}

func TestSaveLoadCSV(t *testing.T) {
	tb := sampleTable()
	path := t.TempDir() + "/runs.csv"
	if err := tb.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tb.Len() {
		t.Fatal("file round trip lost runs")
	}
}
