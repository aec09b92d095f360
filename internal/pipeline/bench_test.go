package pipeline

import (
	"testing"

	"repro/internal/serving"
)

// BenchmarkPipelineRetrainPromote measures one full continuous-training
// cycle — trigger, candidate fit on the store, gate evaluation against
// the incumbent, atomic file write, registry hot-swap — the unit of
// work the serve+retrain process pays per accepted trigger.
func BenchmarkPipelineRetrainPromote(b *testing.B) {
	store := newSeededStore(b, b.TempDir())
	reg := serving.NewRegistry()
	p, err := New(store, b.TempDir(), testPipelineConfig(), reg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Kick(testApp, "", "")
		res, err := p.RunOnce(testApp, "")
		if err != nil {
			b.Fatal(err)
		}
		if res.Skipped {
			b.Fatal("benchmark cycle skipped")
		}
	}
}

// BenchmarkStoreAppend measures the fsync'd ingest path per record.
func BenchmarkStoreAppend(b *testing.B) {
	store, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"nx", "ny", "nz", "c"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := store.Append(cols, Record{
			App: "bench", Params: []float64{float64(i), 1, 2, 3}, Scale: 8, Runtime: 1.25,
		})
		if err != nil || !ok {
			b.Fatalf("Append = %v, %v", ok, err)
		}
	}
}
