// Package dataset defines the execution-history data model shared by the
// simulator, the learning algorithms, and the experiment harness.
//
// A Run is one observed execution: an application input-parameter vector,
// the scale it ran at (number of processes), and the measured runtime.
// A Table is an ordered collection of Runs with named parameter columns;
// it converts to the feature matrices consumed by the regressors, splits
// into train/test partitions and cross-validation folds, and round-trips
// through CSV.
package dataset

import (
	"fmt"
	"sort"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Run is a single observed (or simulated) application execution.
type Run struct {
	Params  []float64 // application input parameters, order fixed by Table.ParamNames
	Scale   int       // number of processes
	Runtime float64   // wall-clock seconds
}

// Table is an execution-history dataset.
type Table struct {
	App        string   // application name, informational
	ParamNames []string // names of the parameter columns
	Runs       []Run
}

// NewTable returns an empty table for the named application and parameters.
func NewTable(app string, paramNames []string) *Table {
	return &Table{App: app, ParamNames: append([]string(nil), paramNames...)}
}

// Add appends a run after validating its parameter-vector width.
func (t *Table) Add(r Run) {
	if len(r.Params) != len(t.ParamNames) {
		panic(fmt.Sprintf("dataset: run has %d params, table has %d columns", len(r.Params), len(t.ParamNames)))
	}
	t.Runs = append(t.Runs, r)
}

// Len returns the number of runs.
func (t *Table) Len() int { return len(t.Runs) }

// Scales returns the distinct scales present, ascending.
func (t *Table) Scales() []int {
	seen := map[int]bool{}
	for _, r := range t.Runs {
		seen[r.Scale] = true
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// FilterScale returns a new table containing only runs at scale s.
// The runs slice is fresh but Params slices are shared.
func (t *Table) FilterScale(s int) *Table {
	out := NewTable(t.App, t.ParamNames)
	for _, r := range t.Runs {
		if r.Scale == s {
			out.Runs = append(out.Runs, r)
		}
	}
	return out
}

// XY extracts the feature matrix (parameters only) and runtime targets.
func (t *Table) XY() (*mat.Dense, []float64) {
	x := mat.NewDense(len(t.Runs), len(t.ParamNames))
	y := make([]float64, len(t.Runs))
	for i, r := range t.Runs {
		copy(x.Row(i), r.Params)
		y[i] = r.Runtime
	}
	return x, y
}

// XYWithScale extracts features with the scale appended as the last column.
// This is the representation direct-ML baselines train on: they see scale
// as just another feature and must extrapolate along it.
func (t *Table) XYWithScale() (*mat.Dense, []float64) {
	p := len(t.ParamNames)
	x := mat.NewDense(len(t.Runs), p+1)
	y := make([]float64, len(t.Runs))
	for i, r := range t.Runs {
		row := x.Row(i)
		copy(row, r.Params)
		row[p] = float64(r.Scale)
		y[i] = r.Runtime
	}
	return x, y
}

// ParamKey returns a canonical string key for a parameter vector, used to
// group runs of the same configuration across scales.
func ParamKey(params []float64) string {
	return fmt.Sprintf("%v", params)
}

// Config groups the runs of one input configuration across scales.
type Config struct {
	Params   []float64
	Runtimes map[int]float64 // scale -> runtime (mean if repeated)
}

// GroupByConfig collapses the table into per-configuration scaling curves.
// Repeated (config, scale) measurements are averaged. Order of the result
// is deterministic (sorted by parameter key).
func (t *Table) GroupByConfig() []Config {
	type acc struct {
		params []float64
		sum    map[int]float64
		n      map[int]int
	}
	m := map[string]*acc{}
	keys := []string{}
	for _, r := range t.Runs {
		k := ParamKey(r.Params)
		a, ok := m[k]
		if !ok {
			a = &acc{params: r.Params, sum: map[int]float64{}, n: map[int]int{}}
			m[k] = a
			keys = append(keys, k)
		}
		a.sum[r.Scale] += r.Runtime
		a.n[r.Scale]++
	}
	sort.Strings(keys)
	out := make([]Config, 0, len(keys))
	for _, k := range keys {
		a := m[k]
		rt := make(map[int]float64, len(a.sum))
		for s, v := range a.sum {
			rt[s] = v / float64(a.n[s])
		}
		out = append(out, Config{Params: a.params, Runtimes: rt})
	}
	return out
}

// Curve returns the runtimes of c at the given scales; ok is false if any
// scale is missing.
func (c Config) Curve(scales []int) (curve []float64, ok bool) {
	curve = make([]float64, len(scales))
	for i, s := range scales {
		v, present := c.Runtimes[s]
		if !present {
			return nil, false
		}
		curve[i] = v
	}
	return curve, true
}

// Fold is one cross-validation fold given as row indices into a table.
type Fold struct {
	Train, Test []int
}

// KFold returns k cross-validation folds over row indices [0, n), shuffled
// by r. Folds differ in size by at most one. It panics if k < 2 or k > n.
func KFold(r *rng.Source, n, k int) []Fold {
	if k < 2 || k > n {
		panic(fmt.Sprintf("dataset: KFold k=%d n=%d", k, n))
	}
	perm := r.Perm(n)
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		test := append([]int(nil), perm[lo:hi]...)
		train := make([]int, 0, n-(hi-lo))
		train = append(train, perm[:lo]...)
		train = append(train, perm[hi:]...)
		folds[f] = Fold{Train: train, Test: test}
	}
	return folds
}

// Merge appends all runs of other (which must have the same columns).
func (t *Table) Merge(other *Table) {
	if len(other.ParamNames) != len(t.ParamNames) {
		panic("dataset: Merge column mismatch")
	}
	for i, n := range t.ParamNames {
		if other.ParamNames[i] != n {
			panic("dataset: Merge column name mismatch")
		}
	}
	t.Runs = append(t.Runs, other.Runs...)
}
