package pipeline

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/serving"
)

// Journal event kinds: the serving layer's outcome names, so a journal
// event, NotePromotion and the pipeline_cycles_total label agree.
const (
	EventPromoted = serving.PromotionPromoted
	EventRejected = serving.PromotionRejected
	EventRollback = serving.PromotionRollback
)

// Entry is one audit record: what the pipeline did, to which app, at
// which generation, and on what evidence. Time is stamped by the caller
// at the cmd/ boundary (the pipeline itself never reads the clock), so
// a journal written without timestamps is byte-deterministic.
type Entry struct {
	Gen    int    `json:"gen"`
	App    string `json:"app"`
	Event  string `json:"event"`
	Reason string `json:"reason,omitempty"`

	// Records is the store's record count for the app when the cycle ran;
	// it doubles as persisted trigger state across restarts.
	Records int `json:"records,omitempty"`

	// TrainHash identifies the exact training set; ModelPath/ModelSHA the
	// promoted artifact (base name, content hash). Incumbent is the
	// generation the candidate was judged against (0 = none).
	TrainHash string `json:"train_hash,omitempty"`
	ModelPath string `json:"model_path,omitempty"`
	ModelSHA  string `json:"model_sha,omitempty"`
	Incumbent int    `json:"incumbent,omitempty"`

	// Gate carries the verdict's evidence for promoted/rejected events.
	Gate *GateResult `json:"gate,omitempty"`

	// Trigger records why the cycle ran: the record-count policy, a plain
	// kick, or a drift kick carrying the breach diagnosis — so a promoted
	// generation is traceable to the signal that caused it.
	Trigger string `json:"trigger,omitempty"`

	// Origin is the opaque identity the triggering signal arrived with —
	// for drift kicks, the X-Request-Id of the /v1/observe call whose
	// observation breached the coverage floor — completing the trace from
	// an HTTP request through the monitor to the promoted generation.
	Origin string `json:"origin,omitempty"`

	// Time is an RFC 3339 timestamp stamped by the CLI boundary; empty in
	// deterministic (test, replay) runs.
	Time string `json:"time,omitempty"`
}

// Journal is the append-only audit log, one JSON object per line,
// fsync'd per append. It owns the monotonic generation counter: every
// training cycle consumes the next generation whether it promotes or
// not, so generation numbers totally order all pipeline decisions.
type Journal struct {
	path string

	mu      sync.Mutex
	entries []Entry
	maxGen  int
	torn    *TornTail // cut off by OpenJournal
}

// OpenJournal opens (or creates) the journal at path and replays it,
// holding every entry to the rule Append enforces (checkEntry): a line
// that breaks it is an error naming the file and line. A torn last line
// is cut off the file and reported by Torn.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return j, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, torn, err := scanLines(f, 0, func(b []byte) error {
		e, err := parseEntry(b, j.maxGen)
		if err != nil {
			return err
		}
		j.entries = append(j.entries, e)
		j.maxGen = max(j.maxGen, e.Gen)
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.torn = torn
	return j, nil
}

// parseEntry parses one journal line and checks it against the entries
// before it, whose highest generation is maxGen.
func parseEntry(b []byte, maxGen int) (Entry, error) {
	var e Entry
	if err := json.Unmarshal(b, &e); err != nil {
		return Entry{}, err
	}
	return e, checkEntry(e, maxGen)
}

// checkEntry is the journal's one entry rule, for appends and replays
// alike: a known event, an app, and a generation above maxGen, the
// highest before it, except for a rollback, which references an older
// generation by design.
func checkEntry(e Entry, maxGen int) error {
	switch e.Event {
	case EventPromoted, EventRejected, EventRollback:
	default:
		return fmt.Errorf("journal entry with unknown event %q", e.Event)
	}
	if e.App == "" {
		return fmt.Errorf("journal entry without app")
	}
	if e.Event != EventRollback && e.Gen <= maxGen {
		return fmt.Errorf("journal entry reuses generation %d (max %d)", e.Gen, maxGen)
	}
	return nil
}

// Torn returns the torn last line OpenJournal cut off, or nil.
func (j *Journal) Torn() *TornTail { return j.torn }

// Append checks (checkEntry), persists (fsync), and records one entry.
func (j *Journal) Append(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := checkEntry(e, j.maxGen); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	isEntry := func(b []byte) error {
		_, err := parseEntry(b, j.maxGen)
		return err
	}
	if _, err := appendLines(j.path, append(line, '\n'), !fileExists(j.path), nil, 0, isEntry); err != nil {
		return err
	}
	j.entries = append(j.entries, e)
	j.maxGen = max(j.maxGen, e.Gen)
	return nil
}

// fileExists reports whether path exists.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// Entries returns a copy of the journal's entries in order.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Entry(nil), j.entries...)
}

// NextGen returns the next unused generation number (monotonic, shared
// across apps so the journal totally orders decisions).
func (j *Journal) NextGen() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxGen + 1
}

// Active returns app's currently active generation: the target of the
// latest promoted or rollback event. ok is false when the app has never
// promoted.
func (j *Journal) Active(app string) (gen int, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := len(j.entries) - 1; i >= 0; i-- {
		e := j.entries[i]
		if e.App == app && (e.Event == EventPromoted || e.Event == EventRollback) {
			return e.Gen, true
		}
	}
	return 0, false
}

// PreviousPromoted returns the largest promoted generation for app that
// is strictly below gen — the rollback target.
func (j *Journal) PreviousPromoted(app string, gen int) (int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	best, ok := 0, false
	for _, e := range j.entries {
		if e.App == app && e.Event == EventPromoted && e.Gen < gen && e.Gen > best {
			best, ok = e.Gen, true
		}
	}
	return best, ok
}

// lastRecords returns, per app, the store record count of its latest
// entry carrying one — the persisted trigger baseline.
func (j *Journal) lastRecords() map[string]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := map[string]int{}
	for _, e := range j.entries {
		if e.Records > 0 {
			out[e.App] = e.Records
		}
	}
	return out
}
