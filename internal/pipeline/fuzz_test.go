package pipeline

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The store partitions and the journal are read from disk a crashed or
// hostile process may have written. These targets hold both readers to
// two properties over arbitrary bytes: the reader returns a valid state
// or an error naming the file, never a panic; and a torn-tail recovery
// is final, so the repaired file re-opens to the same state with no
// further TornTail. The committed seeds (testdata/fuzz) cover a valid
// file, a torn last line, a torn lone first line, a malformed middle
// line and an empty file; the over-long line is built here, because a
// line past the scanner's 4 MiB limit is too large to commit.

// overlongLine returns prefix followed by one line longer than
// scanLines accepts.
func overlongLine(prefix string) []byte {
	return append([]byte(prefix), bytes.Repeat([]byte("x"), 4<<20+1)...)
}

// writeFuzzFile writes data to a fresh file called name and returns its
// path.
func writeFuzzFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// requireNamed fails unless err names the file it is about.
func requireNamed(t *testing.T, err error, path string) {
	t.Helper()
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error does not name %s: %v", path, err)
	}
}

func FuzzReadPartition(f *testing.F) {
	f.Add(overlongLine(`{"app":"smg","param_names":["nx","ny"]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeFuzzFile(t, "smg.jsonl", data)
		part, torn, err := readPartition(path, "smg")
		if err != nil {
			requireNamed(t, err, path)
			return
		}
		if part == nil {
			// Only a torn header: the file is removed.
			if torn == nil {
				t.Fatal("nil partition without a torn tail")
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("file of a torn header survives: %v", err)
			}
			return
		}
		seen := map[string]bool{}
		for i, rec := range part.records {
			if rec.App != "smg" || len(rec.Params) != len(part.paramNames) {
				t.Fatalf("record %d = %+v does not fit partition smg%v", i, rec, part.paramNames)
			}
			h := rec.Hash()
			if seen[h] || !part.hashes[h] {
				t.Fatalf("record %d: hash index out of step (duplicate %v, indexed %v)", i, seen[h], part.hashes[h])
			}
			seen[h] = true
		}
		if len(seen) != len(part.hashes) {
			t.Fatalf("%d hashes indexed for %d records", len(part.hashes), len(seen))
		}

		again, torn2, err := readPartition(path, "smg")
		if err != nil || torn2 != nil {
			t.Fatalf("re-open after a clean read: torn %v, err %v", torn2, err)
		}
		if !reflect.DeepEqual(again, part) {
			t.Fatal("re-open read a different partition")
		}
	})
}

func FuzzOpenJournal(f *testing.F) {
	f.Add(overlongLine(`{"gen":1,"app":"smg","event":"promoted"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeFuzzFile(t, "journal.jsonl", data)
		j, err := OpenJournal(path)
		if err != nil {
			requireNamed(t, err, path)
			return
		}
		entries := j.Entries()
		maxGen := 0
		for _, e := range entries {
			maxGen = max(maxGen, e.Gen)
		}
		if j.NextGen() != maxGen+1 {
			t.Fatalf("NextGen = %d after generations up to %d", j.NextGen(), maxGen)
		}

		again, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("re-open after a clean read: %v", err)
		}
		if again.Torn() != nil {
			t.Fatalf("re-open after a clean read found another torn tail: %v", again.Torn())
		}
		if !reflect.DeepEqual(again.Entries(), entries) {
			t.Fatal("re-open replayed different entries")
		}
	})
}
