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
// further TornTail. A partition is also read in two pieces, as a
// Refresh reads a file that grew between scans, and must come out as a
// one-pass read of the same bytes, and a journal that opens must replay
// through Append into a fresh journal. The committed seeds
// (testdata/fuzz) cover a valid file, a torn last line, a torn lone
// first line, a malformed middle line, a record glued onto a torn line
// (what an append that did not settle the tail first wrote), an empty
// file, splits inside a record and just before a newline, and journal
// entries that break Append's rule (a reused generation, an unknown
// event, no app) next to a rollback that reuses one by design; the
// over-long line is built here, because a line past the scanner's 4 MiB
// limit is too large to commit.

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
	f.Add(overlongLine(`{"app":"smg","param_names":["nx","ny"]}`+"\n"), uint(41))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		path := writeFuzzFile(t, "smg.jsonl", data)
		part, _, torn, err := readPartition(path, "smg", nil)
		if err != nil {
			requireNamed(t, err, path)
		} else if part == nil {
			// No header line: the file is removed.
			if torn == nil {
				t.Fatal("nil partition without a torn tail")
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("file without a header survives: %v", err)
			}
		} else {
			checkPartition(t, part)
			if same, n, torn, err := readPartition(path, "smg", part); same != part || n != 0 || torn != nil || err != nil {
				t.Fatalf("refresh of an unchanged file: same index %v, %d bytes parsed, torn %v, err %v", same == part, n, torn, err)
			}
			again, _, torn2, err := readPartition(path, "smg", nil)
			if err != nil || torn2 != nil {
				t.Fatalf("re-open after a clean read: torn %v, err %v", torn2, err)
			}
			requireSamePartition(t, again, part)
		}
		readInTwoPieces(t, data, int(split%uint(len(data)+1)))
	})
}

// readInTwoPieces writes data[:k], reads it, appends data[k:] and reads
// the grown file on from the first read's index, as Refresh does. The
// result must equal a one-pass read of a copy of the grown file, and
// both reads must leave their file with the same bytes.
func readInTwoPieces(t *testing.T, data []byte, k int) {
	t.Helper()
	path := writeFuzzFile(t, "smg.jsonl", data[:k])
	first, _, _, err := readPartition(path, "smg", nil)
	if err != nil {
		return // the prefix holds a malformed whole line: nothing to extend
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[k:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	onePath := writeFuzzFile(t, "smg.jsonl", grown)
	want, _, wantTorn, wantErr := readPartition(onePath, "smg", nil)
	got, _, gotTorn, gotErr := readPartition(path, "smg", first)
	if (gotErr != nil) != (wantErr != nil) || (gotTorn != nil) != (wantTorn != nil) || (got != nil) != (want != nil) {
		t.Fatalf("split at %d: two-piece read (torn %v, err %v) differs from one pass (torn %v, err %v)", k, gotTorn, gotErr, wantTorn, wantErr)
	}
	if got != nil {
		requireSamePartition(t, got, want)
	}
	gotBytes, gotStat := os.ReadFile(path)
	wantBytes, wantStat := os.ReadFile(onePath)
	if !bytes.Equal(gotBytes, wantBytes) || (gotStat == nil) != (wantStat == nil) {
		t.Fatalf("split at %d: the two reads left different files", k)
	}
}

// checkPartition holds a partition's records and hash index in step.
func checkPartition(t *testing.T, part *appPartition) {
	t.Helper()
	seen := map[recordKey]bool{}
	for i, rec := range part.records {
		if rec.App != "smg" || len(rec.Params) != len(part.paramNames) {
			t.Fatalf("record %d = %+v does not fit partition smg%v", i, rec, part.paramNames)
		}
		k := rec.key()
		if seen[k] || !part.hashes[k] {
			t.Fatalf("record %d: hash index out of step (duplicate %v, indexed %v)", i, seen[k], part.hashes[k])
		}
		seen[k] = true
	}
	if len(seen) != len(part.hashes) {
		t.Fatalf("%d hashes indexed for %d records", len(part.hashes), len(seen))
	}
}

// requireSamePartition compares two indexes, except for which file each
// was read from.
func requireSamePartition(t *testing.T, got, want *appPartition) {
	t.Helper()
	if !samePartition(got, want) {
		t.Fatalf("partitions differ:\n got %d records to offset %d: %+v\nwant %d records to offset %d: %+v",
			len(got.records), got.off, got.records, len(want.records), want.off, want.records)
	}
}

// samePartition reports whether two indexes hold the same records read
// to the same offset, whichever file each was read from.
func samePartition(a, b *appPartition) bool {
	return reflect.DeepEqual(a.paramNames, b.paramNames) && reflect.DeepEqual(a.records, b.records) &&
		reflect.DeepEqual(a.hashes, b.hashes) && a.off == b.off
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

		// OpenJournal and Append hold entries to one rule, so a journal
		// that opens replays, entry by entry, into a fresh one.
		replay, err := OpenJournal(filepath.Join(t.TempDir(), "replay.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			if err := replay.Append(e); err != nil {
				t.Fatalf("entry %d opened, but Append refuses it: %v", i+1, err)
			}
		}
		if !reflect.DeepEqual(replay.Entries(), entries) {
			t.Fatal("the replayed journal holds different entries")
		}
	})
}
