package pipeline

import (
	"path/filepath"
	"testing"
)

// newTriggerPipeline opens a pipeline over an empty store, for tests of
// the retrain policy alone. entries, if any, are journaled first, as a
// restarted pipeline finds them.
func newTriggerPipeline(t *testing.T, minNew int, entries ...Entry) *Pipeline {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(store, dir, Config{MinNewRecords: minNew}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTriggerCountPolicy(t *testing.T) {
	p := newTriggerPipeline(t, 10)
	if due, _, _ := p.due("smg", 9); due {
		t.Fatal("due below threshold")
	}
	if due, why, _ := p.due("smg", 10); !due || why != "10 new records (threshold 10)" {
		t.Fatalf("not due at threshold: %v %q", due, why)
	}
	p.mark("smg", 10)
	if due, _, _ := p.due("smg", 15); due {
		t.Fatal("due with only 5 fresh records after mark")
	}
	if due, _, _ := p.due("smg", 20); !due {
		t.Fatal("not due with 10 fresh records after mark")
	}
}

func TestTriggerKickForcesAndIsConsumed(t *testing.T) {
	p := newTriggerPipeline(t, 1000)
	p.Kick("smg", "", "")
	if due, why, _ := p.due("smg", 0); !due || why != "kicked" {
		t.Fatalf("kick not honored: %v %q", due, why)
	}
	p.mark("smg", 0)
	if due, _, _ := p.due("smg", 0); due {
		t.Fatal("kick survived mark")
	}
	// Kicking one app must not trigger another.
	p.Kick("smg", "", "")
	if due, _, _ := p.due("lulesh", 0); due {
		t.Fatal("kick leaked across apps")
	}
	// A reason replaces a plain pending kick; after that the first
	// cause wins until a cycle consumes it.
	p.Kick("smg", "drift: coverage below floor", "req-1")
	p.Kick("smg", "drift: later breach", "req-2")
	if due, why, origin := p.due("smg", 0); !due || why != "kicked: drift: coverage below floor" || origin != "req-1" {
		t.Fatalf("pending kick = %v %q %q, want the first reason and its origin", due, why, origin)
	}
}

func TestTriggerPrimeRestoresBaseline(t *testing.T) {
	p := newTriggerPipeline(t, 10, Entry{Gen: 1, App: "smg", Event: EventRejected, Records: 100})
	if due, _, _ := p.due("smg", 105); due {
		t.Fatal("reopened pipeline fired below threshold")
	}
	if due, _, _ := p.due("smg", 110); !due {
		t.Fatal("reopened pipeline did not fire at threshold")
	}
	// The baseline never moves backwards.
	p.mark("smg", 50)
	if due, _, _ := p.due("smg", 105); due {
		t.Fatal("stale mark lowered the baseline")
	}
}
