package treec

import (
	"testing"

	"repro/internal/forest"
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
