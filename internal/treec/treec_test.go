package treec

import (
	"math"
	"testing"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/rng"
)

// friedman1-style data, matching the generator in the forest test suite
// so the compiled and pointer benchmarks are comparable.
func friedman(r *rng.Source, n int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 6)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 6; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = 10*math.Sin(math.Pi*x.At(i, 0)*x.At(i, 1)) +
			20*math.Pow(x.At(i, 2)-0.5, 2) +
			10*x.At(i, 3) + 5*x.At(i, 4) + 0.1*r.Norm()
	}
	return x, y
}

func TestCompileForestLayout(t *testing.T) {
	r := rng.New(1)
	x, y := friedman(r, 200)
	p := forest.Defaults()
	p.Trees = 7
	f := forest.Fit(x, y, p, r)
	cf := CompileForest(f)

	if got, want := cf.E.NumTrees(), len(f.Trees); got != want {
		t.Fatalf("compiled %d trees, want %d", got, want)
	}
	total := 0
	for _, tr := range f.Trees {
		total += len(tr.Nodes)
	}
	if got := len(cf.E.Feature); got != total {
		t.Fatalf("compiled %d nodes, want %d", got, total)
	}
	if len(cf.E.Feature) != total || len(cf.E.Child) != total || len(cf.E.Thresh) != total {
		t.Fatal("SoA arrays not aligned to node count")
	}
	// Roots are increasing offsets; every internal node's children are
	// adjacent and inside the tree's node range.
	for ti, root := range cf.E.Roots {
		end := len(cf.E.Feature)
		if ti+1 < len(cf.E.Roots) {
			end = int(cf.E.Roots[ti+1])
		}
		if int(root) >= end {
			t.Fatalf("tree %d root %d >= end %d", ti, root, end)
		}
		for j := int(root); j < end; j++ {
			if cf.E.Feature[j] < 0 {
				continue
			}
			l := int(cf.E.Child[j])
			if l <= j || l+1 >= end+1 || l < int(root) || l+1 > end {
				t.Fatalf("tree %d node %d has children %d,%d outside (%d,%d]", ti, j, l, l+1, root, end)
			}
		}
	}
}

func TestCompiledForestMatchesPointer(t *testing.T) {
	r := rng.New(2)
	x, y := friedman(r, 300)
	p := forest.Defaults()
	p.Trees = 40
	f := forest.Fit(x, y, p, r)
	cf := CompileForest(f)

	want := f.PredictBatch(x, nil)
	got := cf.PredictBatch(x, make([]float64, x.Rows))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: compiled %v != pointer %v", i, got[i], want[i])
		}
	}
	for i := 0; i < 20; i++ {
		v := x.Row(i)
		if cf.Predict(v) != f.Predict(v) {
			t.Fatalf("single row %d diverges", i)
		}
	}
}

func TestCompiledQuantilesMatchPointer(t *testing.T) {
	r := rng.New(5)
	x, y := friedman(r, 200)
	p := forest.Defaults()
	p.Trees = 31
	f := forest.Fit(x, y, p, r)
	cf := CompileForest(f)

	qs := []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1}
	want := make([]float64, len(qs))
	got := make([]float64, len(qs))
	scratch := make([]float64, len(f.Trees))
	for i := 0; i < 20; i++ {
		v := x.Row(i)
		wm := f.PredictQuantilesInto(v, qs, scratch, want)
		gm := cf.PredictQuantilesInto(v, qs, scratch, got)
		if wm != gm {
			t.Fatalf("row %d: mean %v != %v", i, gm, wm)
		}
		for j := range qs {
			if got[j] != want[j] {
				t.Fatalf("row %d q=%v: compiled %v != pointer %v", i, qs[j], got[j], want[j])
			}
		}
	}
}

func TestCompiledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	r := rng.New(6)
	x, y := friedman(r, 200)
	p := forest.Defaults()
	p.Trees = 10
	f := forest.Fit(x, y, p, r)
	cf := CompileForest(f)
	dst := make([]float64, x.Rows)
	if n := testing.AllocsPerRun(20, func() { cf.PredictBatch(x, dst) }); n != 0 {
		t.Fatalf("compiled forest PredictBatch allocates %v per call, want 0", n)
	}
	probe := x.Row(0)
	if n := testing.AllocsPerRun(50, func() { cf.Predict(probe) }); n != 0 {
		t.Fatalf("compiled forest Predict allocates %v per call, want 0", n)
	}
	qs := []float64{0.1, 0.9}
	qdst := make([]float64, 2)
	scratch := make([]float64, cf.E.NumTrees())
	if n := testing.AllocsPerRun(50, func() { cf.PredictQuantilesInto(probe, qs, scratch, qdst) }); n != 0 {
		t.Fatalf("compiled PredictQuantilesInto allocates %v per call, want 0", n)
	}
	// Past laneTrees trees the single-row kernel walks in chunks; its lane
	// array must stay on the stack across them.
	p.Trees = 2*laneTrees + 3
	big := CompileForest(forest.Fit(x, y, p, r))
	if n := testing.AllocsPerRun(50, func() { big.Predict(probe) }); n != 0 {
		t.Fatalf("compiled Predict over %d trees allocates %v per call, want 0", p.Trees, n)
	}
	scratch = make([]float64, big.E.NumTrees())
	if n := testing.AllocsPerRun(50, func() { big.PredictQuantilesInto(probe, qs, scratch, qdst) }); n != 0 {
		t.Fatalf("compiled PredictQuantilesInto over %d trees allocates %v per call, want 0", p.Trees, n)
	}
}

func TestCompiledPanics(t *testing.T) {
	r := rng.New(7)
	x, y := friedman(r, 60)
	p := forest.Defaults()
	p.Trees = 3
	cf := CompileForest(forest.Fit(x, y, p, r))
	for name, fn := range map[string]func(){
		"wrong features": func() { cf.Predict([]float64{1}) },
		"short dst":      func() { cf.PredictBatch(x, make([]float64, 3)) },
		"bad quantile":   func() { cf.PredictQuantilesInto(x.Row(0), []float64{1.5}, nil, make([]float64, 1)) },
		"short qdst":     func() { cf.PredictQuantilesInto(x.Row(0), []float64{0.1, 0.9}, nil, make([]float64, 1)) },
		"short scratch":  func() { cf.PredictQuantilesInto(x.Row(0), []float64{0.1}, make([]float64, 1), make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCompiledFasterThanPointer holds the reason the compiled layout
// exists: on the same fit, the compiled forest's PredictBatch must beat
// the pointer forest's. The two sides run interleaved and each side's
// minimum over several testing.Benchmark runs is compared, so a burst of
// machine noise during one run cannot decide the outcome. The measured
// gap is several-fold, so the strict comparison has wide margin.
func TestCompiledFasterThanPointer(t *testing.T) {
	if raceEnabled {
		t.Skip("timing is meaningless under -race instrumentation")
	}
	r := rng.New(1)
	x, y := friedman(r, 2000)
	p := forest.Defaults()
	p.Trees = 100
	f := forest.Fit(x, y, p, r)
	cf := CompileForest(f)
	dst := make([]float64, x.Rows)
	timeNs := func(predict func()) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				predict()
			}
		}).NsPerOp()
	}
	const runs = 3
	minPointer, minCompiled := int64(math.MaxInt64), int64(math.MaxInt64)
	for i := 0; i < runs; i++ {
		minPointer = min(minPointer, timeNs(func() { f.PredictBatch(x, dst) }))
		minCompiled = min(minCompiled, timeNs(func() { cf.PredictBatch(x, dst) }))
	}
	t.Logf("PredictBatch min of %d runs: pointer %d ns/op, compiled %d ns/op (%.2fx)",
		runs, minPointer, minCompiled, float64(minPointer)/float64(minCompiled))
	if minCompiled >= minPointer {
		t.Fatalf("compiled PredictBatch %d ns/op is not faster than pointer %d ns/op", minCompiled, minPointer)
	}
}
