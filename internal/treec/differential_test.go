package treec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/rng"
)

// randomDataset draws a dataset with randomized shape and pathologies:
// duplicate values (coarse rounding), constant columns, and negative
// targets, so ties and degenerate splits are exercised.
func randomDataset(r *rng.Source) (*mat.Dense, []float64) {
	rows := 20 + r.Intn(180)
	cols := 1 + r.Intn(8)
	x := mat.NewDense(rows, cols)
	y := make([]float64, rows)
	constCol := -1
	if cols > 1 && r.Float64() < 0.3 {
		constCol = r.Intn(cols)
	}
	coarse := r.Float64() < 0.5 // heavy duplicate feature values
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := r.Uniform(-5, 5)
			if j == constCol {
				v = 1.25
			} else if coarse {
				v = float64(int(v*2)) / 2
			}
			x.Set(i, j, v)
		}
		y[i] = x.At(i, 0)*3 + r.Norm()
	}
	return x, y
}

// chunkTreeCounts are forest sizes around and past the single-row
// kernel's chunk of laneTrees trees: one short of it, exactly one chunk,
// one tree into a second chunk, and three chunks with a partial last one.
var chunkTreeCounts = [...]int{laneTrees - 1, laneTrees, laneTrees + 1, 300}

// TestCompiledDifferentialFuzz is the compiled-vs-pointer differential
// fuzz: across >= 100 seeded random forests and datasets (randomized
// shapes, tree counts, depths, feature subsampling) every prediction
// surface — single row, batch, quantiles with per-tree outputs — must be
// bit-identical between the pointer and the compiled implementations.
// Every tenth seed takes one of chunkTreeCounts instead of a small tree
// count, so forests cross the single-row kernel's chunk boundary.
func TestCompiledDifferentialFuzz(t *testing.T) {
	const seeds = 110
	for seed := uint64(1); seed <= seeds; seed++ {
		r := rng.New(seed)
		x, y := randomDataset(r)
		p := forest.Defaults()
		p.Trees = 1 + r.Intn(30)
		if seed%10 == 0 {
			p.Trees = chunkTreeCounts[(seed/10)%uint64(len(chunkTreeCounts))]
		}
		p.Tree.MaxDepth = 1 + r.Intn(12)
		p.Tree.MinLeafSamples = 1 + r.Intn(4)
		f := forest.Fit(x, y, p, r)
		checkCompiled(t, fmt.Sprintf("seed %d", seed), f, x)
	}
}

// TestCompiledUnevenDepths pairs stumps with deep trees, so the lanes of
// one single-row walk reach their leaves many levels apart, in a forest
// that spans two chunks of laneTrees trees.
func TestCompiledUnevenDepths(t *testing.T) {
	r := rng.New(12)
	x, y := friedman(r, 200)
	shallow, deep := forest.Defaults(), forest.Defaults()
	shallow.Trees, deep.Trees = 100, 100
	shallow.Tree.MaxDepth = 1
	stumps, tall := forest.Fit(x, y, shallow, r), forest.Fit(x, y, deep, r)
	f := &forest.Forest{Features: x.Cols}
	for i := range stumps.Trees {
		f.Trees = append(f.Trees, stumps.Trees[i], tall.Trees[i])
	}
	if len(f.Trees) <= laneTrees {
		t.Fatalf("%d trees do not cross a chunk of %d", len(f.Trees), laneTrees)
	}
	checkCompiled(t, "stumps and deep trees", f, x)
}

// checkCompiled compiles f and requires every prediction surface to be
// bit-identical to the pointer forest on x: the batch kernel over all
// rows (lanes and tail), and for a spread of rows the single-row Predict
// and PredictQuantilesInto with its per-tree outputs.
func checkCompiled(t *testing.T, name string, f *forest.Forest, x *mat.Dense) {
	t.Helper()
	cf := CompileForest(f)
	want := f.PredictBatch(x, nil)
	got := cf.PredictBatch(x, make([]float64, x.Rows))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s row %d: batch compiled %v != pointer %v", name, i, got[i], want[i])
		}
	}

	qs := []float64{0, 0.1, 0.5, 0.9, 1}
	wq := make([]float64, len(qs))
	gq := make([]float64, len(qs))
	wScratch := make([]float64, len(f.Trees))
	gScratch := make([]float64, len(f.Trees))
	for i := 0; i < x.Rows; i += 1 + x.Rows/16 {
		v := x.Row(i)
		if cf.Predict(v) != f.Predict(v) {
			t.Fatalf("%s row %d: single-row predict diverges", name, i)
		}
		wm := f.PredictQuantilesInto(v, qs, wScratch, wq)
		gm := cf.PredictQuantilesInto(v, qs, gScratch, gq)
		if wm != gm {
			t.Fatalf("%s row %d: quantile mean %v != %v", name, i, gm, wm)
		}
		// Per-tree outputs feed conformal bands; the scratch must hold
		// identical (sorted) per-tree predictions, not just quantiles.
		for ti := range wScratch {
			if gScratch[ti] != wScratch[ti] {
				t.Fatalf("%s row %d tree %d: per-tree output %v != %v", name, i, ti, gScratch[ti], wScratch[ti])
			}
		}
		for j := range qs {
			if gq[j] != wq[j] {
				t.Fatalf("%s row %d q=%v: %v != %v", name, i, qs[j], gq[j], wq[j])
			}
		}
	}
}

// FuzzCompiledForestPredict is a native fuzz target over probe rows: the
// fuzzer mutates the probe's feature values (decoded from raw bytes, so
// NaN/Inf/subnormal patterns are reachable) against two fixed seeded
// forests, asserting the compiled traversal reaches exactly the pointer
// traversal's leaves. On the small forest that is the single-row walk
// and the blocked batch kernel, with the probe in each of its four
// interleaved lanes and in its scalar tail, beside training rows. The
// large forest spans two chunks of the single-row kernel; there the
// probe goes through Predict, the batch kernel's tail and
// PredictQuantilesInto with its per-tree outputs. A NaN feature must go
// right at every split it meets, as the pointer walk's failed `v <= t`
// does. `go test` runs the seed corpus; `go test -fuzz` digs.
func FuzzCompiledForestPredict(f *testing.F) {
	r := rng.New(99)
	x, y := friedman(r, 150)
	p := forest.Defaults()
	p.Trees = 15
	pf := forest.Fit(x, y, p, r)
	cf := CompileForest(pf)
	p.Trees = laneTrees + 22
	bigPF := forest.Fit(x, y, p, r)
	bigCF := CompileForest(bigPF)
	// Two four-row lane groups and one tail row: positions 0–7 are the
	// lanes, 8 the scalar tail.
	const batchRows = 9
	batch := mat.NewDense(batchRows, x.Cols)
	got := make([]float64, batchRows)
	qs := []float64{0, 0.1, 0.5, 0.9, 1}
	wq, gq := make([]float64, len(qs)), make([]float64, len(qs))
	wScratch, gScratch := make([]float64, p.Trees), make([]float64, p.Trees)

	nan := math.Float64bits(math.NaN())
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6))
	f.Add(^uint64(0), uint64(0), uint64(1)<<63, uint64(0x7ff0000000000000), uint64(1), uint64(42))
	f.Add(nan, nan, nan, nan, nan, nan)
	f.Add(nan, uint64(0x3fe0000000000000), nan, uint64(0xfff0000000000000), uint64(1), nan)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g uint64) {
		probe := make([]float64, 6)
		for i, w := range [...]uint64{a, b, c, d, e, g} {
			probe[i] = math.Float64frombits(w)
		}
		want := pf.Predict(probe)
		// NaN != NaN, so compare bit patterns.
		if got := cf.Predict(probe); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("compiled %v != pointer %v for probe %v", got, want, probe)
		}
		first := int(a % uint64(x.Rows)) // which training rows sit beside the probe
		fill := func(pos int) {
			for i := 0; i < batchRows; i++ {
				copy(batch.Row(i), x.Row((first+i)%x.Rows))
			}
			copy(batch.Row(pos), probe)
		}
		for pos := 0; pos < batchRows; pos++ {
			fill(pos)
			cf.PredictBatch(batch, got)
			for i, v := range got {
				if w := pf.Predict(batch.Row(i)); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("probe at batch row %d: row %d compiled %v != pointer %v (probe %v)", pos, i, v, w, probe)
				}
			}
		}

		want = bigPF.Predict(probe)
		if got := bigCF.Predict(probe); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d trees: compiled %v != pointer %v for probe %v", p.Trees, got, want, probe)
		}
		fill(batchRows - 1)
		bigCF.PredictBatch(batch, got)
		for i, v := range got {
			if w := bigPF.Predict(batch.Row(i)); math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%d trees, probe in the batch tail: row %d compiled %v != pointer %v (probe %v)", p.Trees, i, v, w, probe)
			}
		}
		wm := bigPF.PredictQuantilesInto(probe, qs, wScratch, wq)
		gm := bigCF.PredictQuantilesInto(probe, qs, gScratch, gq)
		if math.Float64bits(gm) != math.Float64bits(wm) {
			t.Fatalf("%d trees: quantile mean %v != %v for probe %v", p.Trees, gm, wm, probe)
		}
		for i := range wScratch {
			if math.Float64bits(gScratch[i]) != math.Float64bits(wScratch[i]) {
				t.Fatalf("%d trees, tree %d: per-tree output %v != %v for probe %v", p.Trees, i, gScratch[i], wScratch[i], probe)
			}
		}
		for i := range qs {
			if math.Float64bits(gq[i]) != math.Float64bits(wq[i]) {
				t.Fatalf("%d trees, q=%v: %v != %v for probe %v", p.Trees, qs[i], gq[i], wq[i], probe)
			}
		}
	})
}
