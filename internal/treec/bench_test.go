package treec

import (
	"math"
	"testing"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/rng"
)

// These benchmarks are for manual timing. BenchmarkForestPredictBatchCompiled
// mirrors its pointer twin BenchmarkForestPredictBatch (internal/forest) —
// same generator, seed, shape and ensemble size — so the pair's ns/op
// ratio is the compiled layout's speedup. The contract that compiled
// inference beats the pointer walk is held by TestCompiledFasterThanPointer.

func BenchmarkForestPredictBatchCompiled(b *testing.B) {
	r := rng.New(1)
	x, y := friedman(r, 2000)
	p := forest.Defaults()
	p.Trees = 100
	cf := CompileForest(forest.Fit(x, y, p, r))
	dst := make([]float64, x.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.PredictBatch(x, dst)
	}
}

func BenchmarkCompileForest(b *testing.B) {
	r := rng.New(1)
	x, y := friedman(r, 2000)
	p := forest.Defaults()
	p.Trees = 100
	f := forest.Fit(x, y, p, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompileForest(f)
	}
}

// BenchmarkForestPredictRow times the single-row kernel on a model
// shaped like the serving benchmark's: one configuration at a time
// through six 100-tree forests fitted on 500×4 rows (~6 MB of node
// tables, more than a core's L2), as core.PredictSmallInto does for a
// cache miss. Each op takes the next of the 500 distinct rows, so the
// walks do not replay one hot path.
func BenchmarkForestPredictRow(b *testing.B) {
	r := rng.New(1)
	const rows, scales = 500, 6
	x := mat.NewDense(rows, 4)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	forests := make([]*Forest, scales)
	nodes := 0
	for s := range forests {
		y := make([]float64, rows)
		for i := range y {
			v := x.Row(i)
			y[i] = math.Pow(2, float64(s))*v[0]*v[1]/(1+v[2]) + 10*math.Sin(math.Pi*v[3]) + 0.1*r.Norm()
		}
		forests[s] = CompileForest(forest.Fit(x, y, forest.Defaults(), r))
		nodes += len(forests[s].E.Feature)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v := x.Row(i % rows)
		for _, f := range forests {
			sink += f.Predict(v)
		}
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN prediction")
	}
	b.ReportMetric(float64(nodes*16)/(1<<20), "table-MiB")
}
