package pipeline

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestJournalAppendReplayAndGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.NextGen(); got != 1 {
		t.Fatalf("NextGen of empty journal = %d, want 1", got)
	}
	entries := []Entry{
		{Gen: 1, App: "smg", Event: EventPromoted, Records: 10, ModelSHA: "aa"},
		{Gen: 2, App: "smg", Event: EventRejected, Records: 20, Reason: "worse"},
		{Gen: 3, App: "lulesh", Event: EventPromoted, Records: 5},
		{Gen: 4, App: "smg", Event: EventPromoted, Records: 30},
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.NextGen(); got != 5 {
		t.Fatalf("NextGen = %d, want 5", got)
	}
	if gen, ok := j.Active("smg"); !ok || gen != 4 {
		t.Fatalf("Active(smg) = %d, %v", gen, ok)
	}
	if gen, ok := j.PreviousPromoted("smg", 4); !ok || gen != 1 {
		t.Fatalf("PreviousPromoted(smg, 4) = %d, %v; want 1", gen, ok)
	}
	if _, ok := j.PreviousPromoted("smg", 1); ok {
		t.Fatal("PreviousPromoted below the first promotion succeeded")
	}
	if got := j.lastRecords(); got["smg"] != 30 || got["lulesh"] != 5 {
		t.Fatalf("lastRecords = %v", got)
	}

	// Replay from disk reproduces everything.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j2.Entries(), j.Entries()) {
		t.Fatal("replayed journal differs")
	}
	if got := j2.NextGen(); got != 5 {
		t.Fatalf("replayed NextGen = %d, want 5", got)
	}

	// A rollback references an older generation; Active follows it.
	if err := j2.Append(Entry{Gen: 1, App: "smg", Event: EventRollback}); err != nil {
		t.Fatal(err)
	}
	if gen, ok := j2.Active("smg"); !ok || gen != 1 {
		t.Fatalf("Active after rollback = %d, %v; want 1", gen, ok)
	}
	// But non-rollback events must never reuse a generation.
	if err := j2.Append(Entry{Gen: 3, App: "smg", Event: EventPromoted}); err == nil {
		t.Fatal("generation reuse accepted")
	}
	if err := j2.Append(Entry{Gen: 6, App: "smg", Event: "renamed"}); err == nil {
		t.Fatal("unknown event accepted")
	}
	if err := j2.Append(Entry{Gen: 6, Event: EventPromoted}); err == nil {
		t.Fatal("entry without app accepted")
	}
}

// TestJournalTornTailRecovery: a journal append cut off by a crash is
// cut off at the next open and reported, and the next append lands on
// a line of its own; a malformed line that is not the unterminated last
// one is still an error.
func TestJournalTornTailRecovery(t *testing.T) {
	seed := func(t *testing.T) (path string, clean []byte) {
		path = filepath.Join(t.TempDir(), "journal.jsonl")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Entry{Gen: 1, App: "smg", Event: EventPromoted, Records: 10}); err != nil {
			t.Fatal(err)
		}
		clean, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, clean
	}

	t.Run("torn last line", func(t *testing.T) {
		path, clean := seed(t)
		appendRaw(t, path, `{"gen":2,"app":"sm`)
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if torn := j.Torn(); torn == nil || torn.Offset != int64(len(clean)) || torn.Bytes != 18 {
			t.Fatalf("Torn = %v, want an 18-byte tail at offset %d", torn, len(clean))
		}
		if got := j.NextGen(); got != 2 {
			t.Fatalf("NextGen after recovery = %d, want 2", got)
		}
		if err := j.Append(Entry{Gen: 2, App: "smg", Event: EventRejected, Records: 20}); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path)
		if err != nil || len(j2.Entries()) != 2 || j2.Torn() != nil {
			t.Fatalf("reopen after recovery: %v, %d entries", err, len(j2.Entries()))
		}
	})

	for name, damage := range map[string]string{
		"malformed middle line":          "{torn\n" + `{"gen":2,"app":"smg","event":"rejected"}` + "\n",
		"malformed terminated last line": "{torn\n",
	} {
		t.Run(name, func(t *testing.T) {
			path, clean := seed(t)
			appendRaw(t, path, damage)
			if _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "line 2") {
				t.Fatalf("OpenJournal = %v, want an error at line 2", err)
			}
			if after, _ := os.ReadFile(path); string(after) != string(clean)+damage {
				t.Fatal("a failed open changed the file")
			}
		})
	}
}

// TestOpenJournalChecksEveryEntry: OpenJournal holds each line to the
// rule Append enforces (checkEntry), so a journal whose entries Append
// would refuse is an error naming the file and the line, not a replayed
// history. The inputs are the committed FuzzOpenJournal seeds.
func TestOpenJournalChecksEveryEntry(t *testing.T) {
	for _, tc := range []struct{ seed, wantErr string }{
		{"reused-generation", "line 2: journal entry reuses generation 2 (max 2)"},
		{"unknown-event", `line 1: journal entry with unknown event "renamed"`},
		{"no-app", "line 1: journal entry without app"},
		{"rollback-reuses-generation", ""},
		{"valid", ""},
	} {
		t.Run(tc.seed, func(t *testing.T) {
			path := writeFuzzFile(t, "journal.jsonl", fuzzSeed(t, "FuzzOpenJournal", tc.seed))
			j, err := OpenJournal(path)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("OpenJournal = %v, want it to open", err)
				}
				if len(j.Entries()) == 0 {
					t.Fatal("opened with no entries")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), path+" "+tc.wantErr) {
				t.Fatalf("OpenJournal = %v, want %s %s", err, path, tc.wantErr)
			}
		})
	}
}

// fuzzSeed returns the bytes of the committed seed name of target.
func fuzzSeed(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("seed %s/%s is not one []byte value", target, name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("seed %s/%s: %v", target, name, err)
	}
	return []byte(s)
}
