package pipeline

import (
	"fmt"
	"path/filepath"
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

// BenchmarkStoreAppend measures the ingest path per single-record
// batch: one write and one fsync per record.
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

// BenchmarkStoreImport measures the store side of `pipeline ingest`:
// the benchmark's 3,600-record history into a fresh store, one batch.
func BenchmarkStoreImport(b *testing.B) {
	table := syntheticTable("bench", 3600, 1)
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := OpenStore(filepath.Join(root, fmt.Sprint(i)))
		if err != nil {
			b.Fatal(err)
		}
		if added, _, err := store.ImportTable(table); err != nil || added != table.Len() {
			b.Fatalf("ImportTable = %d, %v", added, err)
		}
	}
}

// BenchmarkStoreRefresh measures the embedded pipeline's per-tick
// re-index of a 10k-record partition: unchanged (one stat), and after
// another store appended 88 records (their lines alone are parsed; the
// append itself is not timed).
func BenchmarkStoreRefresh(b *testing.B) {
	open := func(b *testing.B) (reader, writer *Store) {
		dir := b.TempDir()
		writer, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := writer.ImportTable(syntheticTable("bench", 10000, 1)); err != nil {
			b.Fatal(err)
		}
		if reader, err = OpenStore(dir); err != nil {
			b.Fatal(err)
		}
		return reader, writer
	}
	b.Run("unchanged", func(b *testing.B) {
		reader, _ := open(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := reader.Refresh(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append88", func(b *testing.B) {
		reader, writer := open(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, _, err := writer.ImportTable(syntheticTable("bench", 88, uint64(i+2))); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := reader.Refresh(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
