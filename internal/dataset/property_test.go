package dataset

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestCSVRoundTripProperty: any randomly generated table survives the CSV
// round trip exactly.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 1)
		nParams := 1 + r.Intn(5)
		names := make([]string, nParams)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		tb := NewTable("prop", names)
		n := r.Intn(30)
		for i := 0; i < n; i++ {
			run := Run{Params: make([]float64, nParams), Scale: 1 + r.Intn(1<<12)}
			for j := range run.Params {
				run.Params[j] = r.Uniform(-1e6, 1e6)
			}
			run.Runtime = r.Uniform(1e-9, 1e6)
			tb.Add(run)
		}
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return got.App == tb.App &&
			reflect.DeepEqual(got.ParamNames, tb.ParamNames) &&
			(len(got.Runs) == 0 && len(tb.Runs) == 0 || reflect.DeepEqual(got.Runs, tb.Runs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupByConfigCountProperty: grouping never loses or invents
// configurations, and averages preserve the runtime sum per (config,scale).
func TestGroupByConfigCountProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 13)
		tb := NewTable("prop", []string{"p"})
		nCfg := 1 + r.Intn(10)
		for c := 0; c < nCfg; c++ {
			reps := 1 + r.Intn(3)
			for rep := 0; rep < reps; rep++ {
				tb.Add(Run{Params: []float64{float64(c)}, Scale: 2, Runtime: r.Uniform(1, 10)})
			}
		}
		groups := tb.GroupByConfig()
		return len(groups) == nCfg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLHSBoundsProperty: Latin hypercube samples always respect bounds.
func TestLHSBoundsProperty(t *testing.T) {
	f := func(seed uint16, nRaw uint8) bool {
		r := rng.New(uint64(seed) + 17)
		n := 1 + int(nRaw%40)
		sp := Space{Params: []ParamDef{
			{Name: "a", Lo: -5, Hi: 5},
			{Name: "b", Values: []float64{1, 2, 3}},
		}}
		for _, v := range sp.SampleLatinHypercube(r, n) {
			if v[0] < -5 || v[0] >= 5 {
				return false
			}
			if v[1] != 1 && v[1] != 2 && v[1] != 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
