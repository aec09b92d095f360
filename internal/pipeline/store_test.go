package pipeline

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestStoreAppendDedupAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"nx", "ny"}
	rec := Record{App: "smg2000", Params: []float64{8, 16}, Scale: 4, Runtime: 1.5}
	if ok, err := s.Append(cols, rec); err != nil || !ok {
		t.Fatalf("first Append = %v, %v", ok, err)
	}
	if ok, err := s.Append(cols, rec); err != nil || ok {
		t.Fatalf("duplicate Append = %v, %v; want false, nil", ok, err)
	}
	// Same point, distinct repetition index: a legitimate repeat.
	rep := rec
	rep.Rep = 1
	if ok, err := s.Append(cols, rep); err != nil || !ok {
		t.Fatalf("repeat Append = %v, %v", ok, err)
	}
	if got := s.Count("smg2000"); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}

	// Reopen: the on-disk partition must reproduce the index.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Count("smg2000"); got != 2 {
		t.Fatalf("Count after reopen = %d, want 2", got)
	}
	if ok, err := s2.Append(cols, rec); err != nil || ok {
		t.Fatalf("duplicate Append after reopen = %v, %v; want false, nil", ok, err)
	}
	names, ok := s2.ParamNames("smg2000")
	if !ok || !reflect.DeepEqual(names, cols) {
		t.Fatalf("ParamNames = %v, %v", names, ok)
	}
}

// TestStoreRefreshSeesOutOfProcessAppends models `pipeline ingest`
// feeding a live server: a second Store handle appends to the same
// directory, and Refresh picks the new records (and new partitions) up
// without reopening.
func TestStoreRefreshSeesOutOfProcessAppends(t *testing.T) {
	dir := t.TempDir()
	server, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"nx"}
	ingest, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest.Append(cols, Record{App: "smg", Params: []float64{1}, Scale: 2, Runtime: 3}); err != nil {
		t.Fatal(err)
	}
	if got := server.Count("smg"); got != 0 {
		t.Fatalf("Count before Refresh = %d, want 0 (index is a snapshot)", got)
	}
	if err := server.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := server.Count("smg"); got != 1 {
		t.Fatalf("Count after Refresh = %d, want 1", got)
	}
	// Refresh keeps dedup state consistent with the file.
	if ok, err := server.Append(cols, Record{App: "smg", Params: []float64{1}, Scale: 2, Runtime: 3}); err != nil || ok {
		t.Fatalf("duplicate Append after Refresh = %v, %v; want false, nil", ok, err)
	}
	// New records from both handles interleave without loss.
	if _, err := ingest.Append(cols, Record{App: "smg", Params: []float64{2}, Scale: 2, Runtime: 4}); err != nil {
		t.Fatal(err)
	}
	if err := server.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := server.Count("smg"); got != 2 {
		t.Fatalf("Count after second Refresh = %d, want 2", got)
	}
}

func TestStoreRejectsMismatchedWidthAndBadNames(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]string{"a"}, Record{App: "x", Params: []float64{1}, Scale: 2, Runtime: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(nil, Record{App: "x", Params: []float64{1, 2}, Scale: 2, Runtime: 1}); err == nil {
		t.Fatal("mismatched parameter width accepted")
	}
	for _, bad := range []string{"", "a/b", "..", ".hidden", "a b"} {
		if _, err := s.Append([]string{"a"}, Record{App: bad, Params: []float64{1}, Scale: 2, Runtime: 1}); err == nil {
			t.Fatalf("app name %q accepted", bad)
		}
	}
}

func TestStoreImportTableRoundtrip(t *testing.T) {
	hist, _ := testHistories(t)
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	added, skipped, err := s.ImportTable(hist)
	if err != nil {
		t.Fatal(err)
	}
	if added != hist.Len() || skipped != 0 {
		t.Fatalf("first import: added %d skipped %d, want %d/0", added, skipped, hist.Len())
	}
	// Idempotent re-import.
	added, skipped, err = s.ImportTable(hist)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || skipped != hist.Len() {
		t.Fatalf("re-import: added %d skipped %d, want 0/%d", added, skipped, hist.Len())
	}
	got, ok := s.Table(hist.App)
	if !ok {
		t.Fatal("Table missing after import")
	}
	if !reflect.DeepEqual(got.Runs, hist.Runs) {
		t.Fatal("materialized table differs from imported history")
	}
	if apps := s.Apps(); len(apps) != 1 || apps[0] != hist.App {
		t.Fatalf("Apps = %v", apps)
	}
}

func TestStoreImportCSV(t *testing.T) {
	hist, _ := testHistories(t)
	csvPath := filepath.Join(t.TempDir(), "hist.csv")
	if err := hist.SaveCSV(csvPath); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	added, _, err := s.ImportCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if added != hist.Len() {
		t.Fatalf("ImportCSV added %d, want %d", added, hist.Len())
	}

	// A CSV without an application name cannot be partitioned.
	anon := dataset.NewTable("", hist.ParamNames)
	anon.Runs = hist.Runs[:1]
	anonPath := filepath.Join(t.TempDir(), "anon.csv")
	if err := anon.SaveCSV(anonPath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ImportCSV(anonPath); err == nil {
		t.Fatal("CSV without app name accepted")
	}
}

func TestStoreCompactDropsDuplicateLines(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{App: "x", Params: []float64{1}, Scale: 2, Runtime: 3}
	if _, err := s.Append([]string{"a"}, rec); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash-retry double append by duplicating the record line
	// on disk behind the store's back.
	path := filepath.Join(dir, "x.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	dup := lines[len(lines)-1]
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(dup + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen tolerates the duplicate; Compact rewrites without it.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Count("x"); got != 1 {
		t.Fatalf("Count with duplicate line = %d, want 1", got)
	}
	if err := s2.Compact("x"); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(after), "\n"); lines != 2 { // header + one record
		t.Fatalf("compacted file has %d lines, want 2", lines)
	}
	s3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.Count("x"); got != 1 {
		t.Fatalf("Count after compact = %d, want 1", got)
	}
}

// appendRaw appends bytes to a file as a crashed writer would leave
// them: no lock, no trailing newline.
func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTornTailRecovery: an append cut off by a crash (kill -9
// mid-write) leaves the front of a record with no newline. Opening the
// store cuts it off, reports it, and appends resume on a line of their
// own; a malformed line with more after it is still an error, as is a
// malformed last line that was written whole.
func TestStoreTornTailRecovery(t *testing.T) {
	cols := []string{"nx", "ny"}
	rec := func(i int) Record {
		return Record{App: "smg2000", Params: []float64{float64(i), 16}, Scale: 4, Runtime: 1.5}
	}
	seed := func(t *testing.T) (dir, path string, clean []byte) {
		dir = t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Append(cols, rec(i)); err != nil {
				t.Fatal(err)
			}
		}
		path = s.path("smg2000")
		clean, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return dir, path, clean
	}

	t.Run("torn last line", func(t *testing.T) {
		dir, path, clean := seed(t)
		appendRaw(t, path, `{"params":[2,1`)
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		torn := s.TornTails()
		if len(torn) != 1 || torn[0].Offset != int64(len(clean)) || torn[0].Bytes != 14 || torn[0].Err == nil {
			t.Fatalf("TornTails = %v, want one 14-byte tail at offset %d", torn, len(clean))
		}
		if again := s.TornTails(); len(again) != 0 {
			t.Fatalf("TornTails reported %v twice", again)
		}
		if after, _ := os.ReadFile(path); string(after) != string(clean) {
			t.Fatalf("file after recovery:\n%s\nwant:\n%s", after, clean)
		}
		if ok, err := s.Append(cols, rec(2)); err != nil || !ok {
			t.Fatalf("Append after recovery = %v, %v", ok, err)
		}
		s2, err := OpenStore(dir)
		if err != nil || s2.Count("smg2000") != 3 || len(s2.TornTails()) != 0 {
			t.Fatalf("reopen after recovery: %v, %d records", err, s2.Count("smg2000"))
		}
	})

	t.Run("unterminated whole line", func(t *testing.T) {
		dir, path, clean := seed(t)
		appendRaw(t, path, `{"params":[2,16],"scale":4,"runtime":1.5}`)
		s, err := OpenStore(dir)
		if err != nil || s.Count("smg2000") != 3 || len(s.TornTails()) != 0 {
			t.Fatalf("OpenStore = %v with %d records, want the whole last line kept", err, s.Count("smg2000"))
		}
		if after, _ := os.ReadFile(path); !strings.HasSuffix(string(after), "}\n") || len(after) <= len(clean) {
			t.Fatalf("unterminated last line was not given its newline:\n%s", after)
		}
	})

	t.Run("torn header", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "smg2000.jsonl")
		if err := os.WriteFile(path, []byte(`{"app":"smg2`), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir)
		if err != nil || len(s.Apps()) != 0 || len(s.TornTails()) != 1 {
			t.Fatalf("OpenStore = %v with apps %v, want the torn partition dropped and reported", err, s.Apps())
		}
		if ok, err := s.Append(cols, rec(0)); err != nil || !ok {
			t.Fatalf("Append into the dropped partition = %v, %v", ok, err)
		}
	})

	for name, damage := range map[string]string{
		"malformed middle line":          "{torn\n" + `{"params":[2,16],"scale":4,"runtime":1.5}` + "\n",
		"malformed terminated last line": "{torn\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir, path, clean := seed(t)
			appendRaw(t, path, damage)
			if _, err := OpenStore(dir); err == nil || !strings.Contains(err.Error(), "line 4") {
				t.Fatalf("OpenStore = %v, want an error at line 4", err)
			}
			if after, _ := os.ReadFile(path); string(after) != string(clean)+damage {
				t.Fatal("a failed open changed the file")
			}
		})
	}
}
