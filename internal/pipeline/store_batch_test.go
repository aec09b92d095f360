package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// syntheticTable returns an n-run history shaped like the benchmark's:
// four parameters, configurations measured at six scales each.
func syntheticTable(app string, n int, seed uint64) *dataset.Table {
	r := rng.New(seed)
	t := dataset.NewTable(app, []string{"nx", "ny", "nz", "iters"})
	scales := []int{2, 4, 8, 16, 32, 64}
	var cfg []float64
	for i := 0; i < n; i++ {
		if i%len(scales) == 0 {
			cfg = []float64{float64(16 + r.Intn(240)), float64(16 + r.Intn(240)), float64(16 + r.Intn(240)), float64(1 + r.Intn(40))}
		}
		t.Add(dataset.Run{Params: cfg, Scale: scales[i%len(scales)], Runtime: r.Uniform(0.01, 100)})
	}
	return t
}

// withRepeats returns a copy of t with byte-identical duplicate rows
// (stored under ascending rep indices) and repeated measurements of
// the same point with a different runtime (stored as rep 0).
func withRepeats(t *dataset.Table) *dataset.Table {
	out := dataset.NewTable(t.App, t.ParamNames)
	for i, run := range t.Runs {
		out.Add(run)
		if i%97 == 0 {
			out.Add(run) // duplicate row
		}
		if i%211 == 0 {
			out.Add(run) // a third copy: rep 2
		}
		if i%53 == 0 {
			again := run
			again.Runtime *= 1.01 // a new measurement of the same point
			out.Add(again)
		}
	}
	return out
}

// appendEach stores table with one Append per run, reps assigned by
// position as ImportTable assigns them: the bytes a batch must match.
func appendEach(t *testing.T, s *Store, table *dataset.Table) (added int) {
	t.Helper()
	seen := map[string]int{}
	for _, run := range table.Runs {
		h := Record{Params: run.Params, Scale: run.Scale, Runtime: run.Runtime}.Hash()
		rep := seen[h]
		seen[h] = rep + 1
		ok, err := s.Append(table.ParamNames, Record{App: table.App, Params: run.Params, Scale: run.Scale, Runtime: run.Runtime, Rep: rep})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			added++
		}
	}
	return added
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreImportMatchesPerRecordAppends: a batch import of a
// benchmark-sized table, duplicate rows and repeated measurements
// included, writes the bytes a loop of single-record Appends writes,
// both into an empty store and into one already holding part of it.
func TestStoreImportMatchesPerRecordAppends(t *testing.T) {
	first := withRepeats(syntheticTable("bench", 3600, 5))
	second := withRepeats(syntheticTable("bench", 600, 6))
	second.Runs = append(second.Runs, first.Runs[1000:1300]...) // already stored

	batch, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	each, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for round, table := range []*dataset.Table{first, second} {
		added, skipped, err := batch.ImportTable(table)
		if err != nil {
			t.Fatal(err)
		}
		want := appendEach(t, each, table)
		if added != want || added+skipped != table.Len() {
			t.Fatalf("round %d: ImportTable added %d skipped %d of %d, per-record appends added %d", round, added, skipped, table.Len(), want)
		}
		if round == 0 && added != table.Len() {
			t.Fatalf("ImportTable stored %d of %d runs; every repeat is a record of its own", added, table.Len())
		}
		if got, want := readFile(t, batch.path("bench")), readFile(t, each.path("bench")); !bytes.Equal(got, want) {
			t.Fatalf("round %d: batch partition (%d bytes) differs from per-record partition (%d bytes)", round, len(got), len(want))
		}
		if batch.Count("bench") != each.Count("bench") {
			t.Fatalf("round %d: Count %d vs %d", round, batch.Count("bench"), each.Count("bench"))
		}
	}
}

// TestStoreCrashMidBatch cuts an imported partition at every line
// boundary and one byte to either side, the states a kill -9 in the
// middle of the batch's write leaves. OpenStore must cut only the torn
// last line, and importing the same CSV again must leave the file
// byte-identical to an uninterrupted import.
func TestStoreCrashMidBatch(t *testing.T) {
	table := withRepeats(syntheticTable("smg", 48, 9))
	csvPath := filepath.Join(t.TempDir(), "hist.csv")
	if err := table.SaveCSV(csvPath); err != nil {
		t.Fatal(err)
	}
	clean := func() []byte {
		s, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ImportCSV(csvPath); err != nil {
			t.Fatal(err)
		}
		return readFile(t, s.path("smg"))
	}()
	boundary := map[int]bool{0: true}
	for i, c := range clean {
		if c == '\n' {
			boundary[i+1] = true
		}
	}
	cuts := map[int]bool{}
	for b := range boundary {
		for _, c := range []int{b - 1, b, b + 1} {
			if c >= 0 && c <= len(clean) {
				cuts[c] = true
			}
		}
	}
	for cut := range cuts {
		// What a reader keeps: whole lines, and a line that lacks only
		// its newline.
		keep := cut
		if !boundary[cut] && !boundary[cut+1] {
			for !boundary[keep] {
				keep--
			}
		} else if boundary[cut+1] {
			keep = cut + 1
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "smg.jsonl")
		if err := os.WriteFile(path, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("cut at %d: OpenStore: %v", cut, err)
		}
		torn := s.TornTails()
		wantTorn := cut == 0 || keep < cut
		if (len(torn) == 1) != wantTorn || len(torn) > 1 {
			t.Fatalf("cut at %d: TornTails = %v, want a torn tail: %v", cut, torn, wantTorn)
		}
		if wantTorn && (torn[0].Offset != int64(keep) || torn[0].Bytes != int64(cut-keep)) {
			t.Fatalf("cut at %d: torn tail %v, want %d bytes at offset %d", cut, torn[0], cut-keep, keep)
		}
		after, err := os.ReadFile(path)
		switch {
		case keep == 0:
			if !os.IsNotExist(err) {
				t.Fatalf("cut at %d: a partition without a header survives: %v", cut, err)
			}
		case err != nil || !bytes.Equal(after, clean[:keep]):
			t.Fatalf("cut at %d: OpenStore left %d bytes, want the first %d of the import", cut, len(after), keep)
		}
		if want := max(bytes.Count(clean[:keep], []byte{'\n'})-1, 0); s.Count("smg") != want {
			t.Fatalf("cut at %d: %d records indexed, want %d", cut, s.Count("smg"), want)
		}
		if _, _, err := s.ImportCSV(csvPath); err != nil {
			t.Fatalf("cut at %d: re-import: %v", cut, err)
		}
		if got := readFile(t, path); !bytes.Equal(got, clean) {
			t.Fatalf("cut at %d: re-import left %d bytes, want the uninterrupted import's %d", cut, len(got), len(clean))
		}
	}
}

// requireSameIndex fails unless got indexes the store directory as a
// fresh OpenStore does: the same partitions, records in file order, the
// same hashes and parsed offsets.
func requireSameIndex(t *testing.T, step string, got *Store) {
	t.Helper()
	want, err := OpenStore(got.dir)
	if err != nil {
		t.Fatalf("%s: OpenStore: %v", step, err)
	}
	if torn := want.TornTails(); len(torn) != 0 {
		t.Fatalf("%s: OpenStore found torn tails Refresh left: %v", step, torn)
	}
	if !reflect.DeepEqual(got.Apps(), want.Apps()) {
		t.Fatalf("%s: apps %v, OpenStore finds %v", step, got.Apps(), want.Apps())
	}
	for _, app := range want.Apps() {
		g, w := got.apps[app], want.apps[app]
		if !samePartition(g, w) || !os.SameFile(g.file, w.file) {
			t.Fatalf("%s: %s index has %d records to offset %d, OpenStore %d to offset %d", step, app, len(g.records), g.off, len(w.records), w.off)
		}
	}
}

// TestStoreRefreshMatchesOpenStore drives a store directory through
// seeded random interleavings of in-process appends and imports,
// appends from a second Store, raw appends from outside any Store, a
// Compact by the second Store, and torn and unterminated last lines.
// After every step, Refresh must index the directory exactly as a
// fresh OpenStore does. The second Store refreshes only now and then,
// so its appends often land behind lines it has not read; its own
// index must then match OpenStore after its Refresh.
func TestStoreRefreshMatchesOpenStore(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rng.New(seed)
			dir := t.TempDir()
			a, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			b, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			cols := []string{"x", "y"}
			apps := []string{"alpha", "beta"}
			rec := func() Record {
				return Record{
					App:    apps[r.Intn(len(apps))],
					Params: []float64{float64(r.Intn(6)), float64(r.Intn(3))},
					Scale:  2 << r.Intn(2), Runtime: float64(1 + r.Intn(3)), Rep: r.Intn(2),
				}
			}
			line := func(rec Record) string {
				rec.App = ""
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			// existing returns the partition file of a random app, or ""
			// when that app has none yet.
			existing := func() (string, string) {
				app := apps[r.Intn(len(apps))]
				path := filepath.Join(dir, app+".jsonl")
				if _, err := os.Stat(path); err != nil {
					return app, ""
				}
				return app, path
			}
			for i := 0; i < 150; i++ {
				var step string
				switch r.Intn(9) {
				case 0, 1:
					x := rec()
					step = fmt.Sprintf("a.Append %+v", x)
					if _, err := a.Append(cols, x); err != nil {
						t.Fatalf("step %d %s: %v", i, step, err)
					}
				case 2:
					tab := dataset.NewTable(apps[r.Intn(len(apps))], cols)
					for n := 1 + r.Intn(6); n > 0; n-- {
						x := rec()
						tab.Add(dataset.Run{Params: x.Params, Scale: x.Scale, Runtime: x.Runtime})
					}
					step = fmt.Sprintf("a.ImportTable %d runs of %s", tab.Len(), tab.App)
					if _, _, err := a.ImportTable(tab); err != nil {
						t.Fatalf("step %d %s: %v", i, step, err)
					}
				case 3:
					x := rec()
					step = fmt.Sprintf("b.Append %+v", x)
					if _, err := b.Append(cols, x); err != nil {
						t.Fatalf("step %d %s: %v", i, step, err)
					}
				case 4:
					app, path := existing()
					step = "raw append of whole lines to " + app
					if path != "" {
						appendRaw(t, path, line(rec())+"\n"+line(rec())+"\n")
					}
				case 5:
					app, _ := existing()
					step = "b.Compact " + app
					if err := b.Refresh(); err != nil {
						t.Fatalf("step %d %s: %v", i, step, err)
					}
					if _, ok := b.ParamNames(app); ok {
						if err := b.Compact(app); err != nil {
							t.Fatalf("step %d %s: %v", i, step, err)
						}
					}
				case 6:
					app, path := existing()
					step = "torn last line on " + app
					if path != "" {
						full := line(rec())
						appendRaw(t, path, full[:1+r.Intn(len(full)-2)])
					}
				case 7:
					app, path := existing()
					step = "unterminated whole last line on " + app
					if path != "" {
						appendRaw(t, path, line(rec()))
					}
				case 8:
					step = "b.Refresh"
					if err := b.Refresh(); err != nil {
						t.Fatalf("step %d %s: %v", i, step, err)
					}
					requireSameIndex(t, fmt.Sprintf("step %d, second store", i), b)
				}
				step = fmt.Sprintf("step %d (%s)", i, step)
				if err := a.Refresh(); err != nil {
					t.Fatalf("%s: Refresh: %v", step, err)
				}
				requireSameIndex(t, step, a)
			}
		})
	}
}

// TestStoreRefreshParsesOnlyTail holds Refresh to the bytes that
// changed on a 50k-record partition: none for an unchanged file, only
// the appended lines after an append, and the whole file after a
// Compact replaced it or a truncation shrank it.
func TestStoreRefreshParsesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	writer, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := writer.ImportTable(syntheticTable("big", 50000, 3)); err != nil {
		t.Fatal(err)
	}
	path := writer.path("big")
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	reader, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reader.parsed != size() || reader.Count("big") != 50000 {
		t.Fatalf("OpenStore parsed %d bytes into %d records, want the whole %d-byte file", reader.parsed, reader.Count("big"), size())
	}
	refresh := func(what string) int64 {
		t.Helper()
		before := reader.parsed
		if err := reader.Refresh(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return reader.parsed - before
	}

	if n := refresh("unchanged"); n != 0 {
		t.Fatalf("Refresh of an unchanged store parsed %d bytes", n)
	}
	grown := size()
	if _, _, err := writer.ImportTable(syntheticTable("big", 88, 4)); err != nil {
		t.Fatal(err)
	}
	appended := size() - grown
	if n := refresh("after an 88-record append"); n != appended || reader.Count("big") != 50088 {
		t.Fatalf("Refresh after an 88-record append parsed %d bytes into %d records, want the %d appended bytes", n, reader.Count("big"), appended)
	}
	if n := refresh("unchanged again"); n != 0 {
		t.Fatalf("second Refresh parsed %d bytes", n)
	}

	if err := writer.Compact("big"); err != nil {
		t.Fatal(err)
	}
	if n := refresh("after a Compact"); n != size() {
		t.Fatalf("Refresh of a replaced file parsed %d bytes, want all %d", n, size())
	}
	raw := readFile(t, path)
	cut := int64(bytes.LastIndexByte(raw[:len(raw)/2], '\n') + 1)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	if n := refresh("after a truncation"); n != cut {
		t.Fatalf("Refresh of a shrunk file parsed %d bytes, want all %d", n, cut)
	}
	requireSameIndex(t, "after a truncation", reader)
}

// TestStoreAppendBehindFileDefersToRefresh: an Append whose index has
// not read the file to its end still writes its record after the lines
// it has not read, and leaves all of them for Refresh, so the index
// keeps file order.
func TestStoreAppendBehindFileDefersToRefresh(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"x"}
	r := func(x float64) Record { return Record{App: "app", Params: []float64{x}, Scale: 2, Runtime: 1} }
	if _, err := a.Append(cols, r(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(cols, r(2)); err != nil {
		t.Fatal(err)
	}
	if ok, err := a.Append(cols, r(3)); err != nil || !ok {
		t.Fatalf("Append behind the file = %v, %v", ok, err)
	}
	if n := a.Count("app"); n != 1 {
		t.Fatalf("Count before Refresh = %d, want 1: the index must not skip b's line", n)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	tab, _ := a.Table("app")
	var got []float64
	for _, run := range tab.Runs {
		got = append(got, run.Params[0])
	}
	if !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("records after Refresh = %v, want file order [1 2 3]", got)
	}
	requireSameIndex(t, "after Refresh", a)

	// A Compact from an index that has not read the whole file would drop
	// the lines it missed.
	if _, err := b.Append(cols, r(4)); err != nil {
		t.Fatal(err)
	}
	if err := a.Compact("app"); err == nil || !strings.Contains(err.Error(), "Refresh before Compact") {
		t.Fatalf("Compact behind the file = %v, want a refusal", err)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := a.Compact("app"); err != nil {
		t.Fatal(err)
	}
	if a.Count("app") != 4 {
		t.Fatalf("Count after Compact = %d, want 4", a.Count("app"))
	}
	requireSameIndex(t, "after Compact", a)
}

// TestRepairTailLeavesLineInFlight: an unterminated last line whose file
// has grown since it was read is being appended, not torn; the scan ends
// before it and the file is left alone.
func TestRepairTailLeavesLineInFlight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.jsonl")
	content := []byte("{\"a\":1}\n{\"a\":2}\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	called := false
	// As read, the file ended 3 bytes into its second line.
	end, torn, err := repairTail(f, 8, 11, func([]byte) error { called = true; return nil })
	if err != nil || torn != nil || end != 8 || called {
		t.Fatalf("repairTail = %d, %v, %v (line handed on: %v), want the scan to end at 8", end, torn, err, called)
	}
	if got := readFile(t, path); !bytes.Equal(got, content) {
		t.Fatalf("repairTail changed a file in flight: %q", got)
	}
}

// TestAppendSettlesUnterminatedTail: an append to a file that ends in an
// unterminated line no scan has settled yet — a crashed appender's,
// written while this store was open — settles it first, as a reader
// would: a torn line is cut, so the new record does not glue onto it
// and turn it into a malformed middle line that fails every later
// OpenStore; a whole record gets its newline and is kept. The journal
// takes the same write path.
func TestAppendSettlesUnterminatedTail(t *testing.T) {
	cols := []string{"x"}
	r := func(x float64) Record { return Record{App: "app", Params: []float64{x}, Scale: 2, Runtime: 1} }
	for _, tc := range []struct {
		name, tail string
		want       []float64 // records after the second Append, in file order
	}{
		{"torn", `{"params":[2`, []float64{1, 3}},
		{"torn past one read chunk", `{"params":[2,"` + strings.Repeat("x", 150<<10), []float64{1, 3}},
		{"whole record", `{"params":[2],"scale":2,"runtime":1}`, []float64{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(cols, r(1)); err != nil {
				t.Fatal(err)
			}
			clean := readFile(t, s.path("app"))
			appendRaw(t, s.path("app"), tc.tail)
			if ok, err := s.Append(cols, r(3)); err != nil || !ok {
				t.Fatalf("Append after an unterminated tail = %v, %v", ok, err)
			}
			reopened, err := OpenStore(dir)
			if err != nil {
				t.Fatalf("OpenStore after the append: %v", err)
			}
			if torn := reopened.TornTails(); len(torn) != 0 {
				t.Fatalf("TornTails = %v after the append settled the tail", torn)
			}
			tab, _ := reopened.Table("app")
			var got []float64
			for _, run := range tab.Runs {
				got = append(got, run.Params[0])
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("records = %v, want %v", got, tc.want)
			}
			if tc.want[1] == 3 { // the torn tail is gone
				line, _ := json.Marshal(Record{Params: []float64{3}, Scale: 2, Runtime: 1})
				if want := append(clean, append(line, '\n')...); !bytes.Equal(readFile(t, s.path("app")), want) {
					t.Fatalf("file %q, want the torn line gone: %q", readFile(t, s.path("app")), want)
				}
			}
			if err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
			requireSameIndex(t, "after Refresh", s)
		})
	}

	t.Run("journal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Entry{Gen: 1, App: "smg", Event: EventPromoted}); err != nil {
			t.Fatal(err)
		}
		appendRaw(t, path, `{"gen":2,"app":"sm`)
		if err := j.Append(Entry{Gen: 2, App: "smg", Event: EventPromoted}); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal after the append: %v", err)
		}
		if n := len(j2.Entries()); n != 2 || j2.Torn() != nil {
			t.Fatalf("%d entries, torn %v; want 2 and none", n, j2.Torn())
		}
	})
}
