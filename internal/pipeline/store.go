package pipeline

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dataset"
)

// Store is the ingest stage: an append-only run-record store on disk,
// one JSONL file per application under a root directory. Every append
// is one batch — a whole table from ImportTable, or the single record of
// Append — written with one write and one fsync under the partition's
// flock, and acknowledged only after that fsync, so an acknowledged
// record survives a crash. Rewrites (Compact) go through the
// temp+rename idiom so readers never observe a torn file. Records are
// deduplicated by content hash, making both re-imports of the same CSV
// and crash-retry appends idempotent.
//
// File layout: line 1 is a header object naming the application and its
// parameter columns; every further line is one record. The file is
// self-contained — it can be rebuilt into a dataset.Table without
// external schema.
type Store struct {
	dir string

	mu     sync.Mutex
	apps   map[string]*appPartition
	torn   []TornTail // cut off by scans, until TornTails hands them out
	parsed int64      // partition bytes scans have read since OpenStore
}

// appPartition is the in-memory index of one application's file: the
// records of its first off bytes, in file order. file identifies the
// file they were read from, so a scan can tell a grown file (read the
// tail) from a replaced one (read it whole).
type appPartition struct {
	paramNames []string
	hashes     map[recordKey]bool
	records    []Record
	file       os.FileInfo
	off        int64
}

// storeHeader is the first line of every partition file.
type storeHeader struct {
	App        string   `json:"app"`
	ParamNames []string `json:"param_names"`
}

// Record is one observed execution as stored: an application name, the
// input-parameter vector, the scale, the measured runtime, and an
// optional repetition index distinguishing deliberate repeated
// measurements of the same point (otherwise byte-identical repeats are
// deduplicated as retries).
type Record struct {
	App     string    `json:"app,omitempty"` // implied by the partition; kept for Append convenience
	Params  []float64 `json:"params"`
	Scale   int       `json:"scale"`
	Runtime float64   `json:"runtime"`
	Rep     int       `json:"rep,omitempty"`
}

// recordKey is a record's dedup key: the SHA-256 of its content.
type recordKey [sha256.Size]byte

// key returns the record's content hash: SHA-256 over
// "app|p1,p2,...|scale|runtime|rep", numbers in their shortest form.
func (rec *Record) key() recordKey {
	var buf [128]byte
	b := append(buf[:0], rec.App...)
	b = append(b, '|')
	for i, v := range rec.Params {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(rec.Scale), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, rec.Runtime, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(rec.Rep), 10)
	return sha256.Sum256(b)
}

// Hash returns the record's content hash (hex), the dedup key.
func (rec Record) Hash() string {
	k := rec.key()
	return hex.EncodeToString(k[:])
}

// OpenStore opens (creating if needed) a store rooted at dir and
// indexes every existing partition.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: creating store dir: %w", err)
	}
	s := &Store{dir: dir, apps: map[string]*appPartition{}}
	if err := s.scanLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Refresh brings the index up to date with the directory, picking up
// partitions and records appended by other processes (e.g. `pipeline
// ingest` feeding a server's embedded pipeline). Partition files only
// grow between rewrites, so Refresh reads each one from where the index
// ends: an unchanged file costs one stat, a grown one only its new
// lines. A file that shrank or was replaced (another process's Compact)
// is read whole. On error the partition at fault keeps its index.
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scanLocked()
}

// scanLocked brings every partition's index up to date with its file
// (readPartition) and drops partitions whose file is gone. Callers hold
// s.mu (or own the store exclusively, as in OpenStore). The set of
// partitions changes only after every partition read cleanly.
func (s *Store) scanLocked() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	apps := make(map[string]*appPartition, len(s.apps))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		app := strings.TrimSuffix(e.Name(), ".jsonl")
		part, n, torn, err := readPartition(filepath.Join(s.dir, e.Name()), app, s.apps[app])
		s.parsed += n
		if err != nil {
			return err
		}
		if torn != nil {
			s.torn = append(s.torn, *torn)
		}
		if part != nil {
			apps[app] = part
		}
	}
	s.apps = apps
	return nil
}

// TornTails returns the torn last lines OpenStore and Refresh have cut
// off partition files since the previous call, and forgets them.
func (s *Store) TornTails() []TornTail {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.torn
	s.torn = nil
	return out
}

// readPartition brings prev, app's index (nil: none yet), up to date
// with the partition file at path, and returns the index and how many
// bytes it parsed. An unchanged file costs one stat; a grown one is read
// from prev.off on, extending prev in place; a new, replaced or shrunk
// one is read whole into a new index. A torn last line is cut off and
// reported. A file without a header line — empty, or holding only a torn
// header, as a crash between creating and writing it leaves — is
// removed and comes back as a nil partition, as does one whose header
// is still being written. On error prev is left as it was.
func readPartition(path, app string, prev *appPartition) (*appPartition, int64, *TornTail, error) {
	if prev != nil {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, 0, nil, err
		}
		if os.SameFile(fi, prev.file) && fi.Size() == prev.off {
			return prev, 0, nil, nil
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, nil, err
	}
	part := prev
	if part != nil && (!os.SameFile(fi, part.file) || fi.Size() < part.off) {
		part = nil
	}
	var from int64
	kept := 0 // records part held before this read
	if part != nil {
		from, kept = part.off, len(part.records)
	}
	end, torn, err := scanLines(f, from, func(b []byte) error {
		if part == nil {
			var hdr storeHeader
			if err := json.Unmarshal(b, &hdr); err != nil {
				return fmt.Errorf("header: %w", err)
			}
			if hdr.App != app {
				return fmt.Errorf("header names app %q, file is partition %q", hdr.App, app)
			}
			part = &appPartition{paramNames: hdr.ParamNames, hashes: map[recordKey]bool{}, file: fi}
			return nil
		}
		rec, err := part.parseRecord(b)
		if err != nil {
			return err
		}
		rec.App = app
		k := rec.key()
		if part.hashes[k] {
			return nil // duplicate left behind before a Compact
		}
		part.hashes[k] = true
		part.records = append(part.records, rec)
		return nil
	})
	if err != nil {
		if part == prev && prev != nil {
			for _, rec := range prev.records[kept:] {
				delete(prev.hashes, rec.key())
			}
			prev.records = prev.records[:kept]
		}
		return nil, 0, nil, err
	}
	parsed := end - from
	if part == nil {
		if torn == nil && end > 0 {
			return nil, parsed, nil, fmt.Errorf("pipeline: %s: no header line", path)
		}
		removed, err := removeUnchanged(f, end)
		if err != nil {
			return nil, parsed, nil, err
		}
		if removed && torn == nil {
			torn = &TornTail{Path: path, Err: errors.New("empty partition file")}
		}
		return nil, parsed, torn, nil
	}
	part.off = end
	return part, parsed, torn, nil
}

// path returns the partition file for app.
func (s *Store) path(app string) string { return filepath.Join(s.dir, app+".jsonl") }

// validAppName rejects names that would escape the store directory or
// collide with the file naming scheme.
func validAppName(app string) error {
	if app == "" {
		return fmt.Errorf("pipeline: empty app name")
	}
	for _, r := range app {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("pipeline: app name %q: only [A-Za-z0-9._-] allowed", app)
		}
	}
	if strings.HasPrefix(app, ".") {
		return fmt.Errorf("pipeline: app name %q may not start with a dot", app)
	}
	return nil
}

// Append adds one record to app's partition, creating the partition
// (with the given parameter columns) on first use. It returns false
// when the record is a duplicate of one already stored. It is the
// one-record batch of appendBatch: the write is fsync'd before Append
// returns.
func (s *Store) Append(paramNames []string, rec Record) (bool, error) {
	n, err := s.appendBatch(paramNames, []Record{rec})
	return n == 1, err
}

// appendBatch adds recs, which all belong to one application, to that
// application's partition, creating the partition (with the given
// parameter columns, its header in the same write) on first use, and
// returns how many were new. A record that duplicates a stored one, or
// an earlier one of recs, is skipped. The new lines reach the file with
// one write and one fsync (appendLines), and appendBatch returns only
// after that fsync; the file bytes are those of one Append per record.
// If the file held lines this index has not read, the batch follows
// them, and the index leaves both to Refresh, which reads them in file
// order.
func (s *Store) appendBatch(paramNames []string, recs []Record) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	app := recs[0].App
	if err := validAppName(app); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	part, known := s.apps[app]
	if !known && fileExists(s.path(app)) {
		// Another store created the partition since this one last read
		// the directory: read it, and append behind what it holds.
		if err := s.scanLocked(); err != nil {
			return 0, err
		}
		part, known = s.apps[app]
	}
	var buf []byte
	if !known {
		if len(paramNames) == 0 {
			return 0, fmt.Errorf("pipeline: first record for %q needs parameter names", app)
		}
		hdr, err := json.Marshal(storeHeader{App: app, ParamNames: paramNames})
		if err != nil {
			return 0, err
		}
		buf = append(hdr, '\n')
		part = &appPartition{paramNames: append([]string(nil), paramNames...), hashes: map[recordKey]bool{}}
	}
	for _, rec := range recs {
		if rec.App != app {
			return 0, fmt.Errorf("pipeline: one batch holds records for %q and %q", app, rec.App)
		}
		if len(rec.Params) != len(part.paramNames) {
			return 0, fmt.Errorf("pipeline: record for %q has %d params, partition has %d columns (%v)",
				app, len(rec.Params), len(part.paramNames), part.paramNames)
		}
	}
	fresh := make([]Record, 0, len(recs))
	keys := make([]recordKey, 0, len(recs))
	for _, rec := range recs {
		k := rec.key()
		if part.hashes[k] {
			continue
		}
		part.hashes[k] = true // claimed: a later copy in recs is a duplicate
		fileRec := rec
		fileRec.App = "" // implied by the partition; keeps lines compact
		line, err := json.Marshal(fileRec)
		if err != nil {
			part.unclaim(keys)
			return 0, err
		}
		buf = append(append(buf, line...), '\n')
		fresh = append(fresh, rec)
		keys = append(keys, k)
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	isRecord := func(b []byte) error {
		_, err := part.parseRecord(b)
		return err
	}
	caughtUp, err := appendLines(s.path(app), buf, !known, part.file, part.off, isRecord)
	if err != nil {
		part.unclaim(keys)
		return 0, err
	}
	if !caughtUp {
		part.unclaim(keys)
		return len(fresh), nil
	}
	if !known {
		// The file this batch created, or the Compact of it by a store
		// that has read the batch, which begins with the same bytes.
		fi, err := os.Stat(s.path(app))
		if err != nil {
			return len(fresh), nil // written and synced: Refresh reads it
		}
		part.file = fi
		s.apps[app] = part
	}
	part.records = append(part.records, fresh...)
	part.off += int64(len(buf))
	return len(fresh), nil
}

// parseRecord parses one record line of the partition (without its
// App, which the partition implies).
func (part *appPartition) parseRecord(b []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return Record{}, err
	}
	if len(rec.Params) != len(part.paramNames) {
		return Record{}, fmt.Errorf("%d params, partition has %d columns", len(rec.Params), len(part.paramNames))
	}
	return rec, nil
}

// unclaim drops keys appendBatch claimed for records it did not index.
func (part *appPartition) unclaim(keys []recordKey) {
	for _, k := range keys {
		delete(part.hashes, k)
	}
}

// ImportTable appends every run of a dataset table under its App name
// as one batch, returning how many records were new vs. deduplicated.
// Runs that repeat a byte-identical measurement within the table get
// ascending repetition indices, so legitimate repeats are all stored
// while a re-import of the same table stays a no-op.
func (s *Store) ImportTable(t *dataset.Table) (added, skipped int, err error) {
	recs := make([]Record, len(t.Runs))
	seen := make(map[recordKey]int, len(t.Runs))
	for i, run := range t.Runs {
		rec := Record{Params: run.Params, Scale: run.Scale, Runtime: run.Runtime}
		k := rec.key()
		rec.App, rec.Rep = t.App, seen[k]
		seen[k]++
		recs[i] = rec
	}
	added, err = s.appendBatch(t.ParamNames, recs)
	if err != nil {
		return 0, 0, err
	}
	return added, len(recs) - added, nil
}

// ImportCSV reads an execution-history CSV (the dataset package's
// format) and appends its runs as one batch.
func (s *Store) ImportCSV(path string) (added, skipped int, err error) {
	t, err := dataset.LoadCSV(path)
	if err != nil {
		return 0, 0, err
	}
	if t.App == "" {
		return 0, 0, fmt.Errorf("pipeline: %s has no #app record; the store needs an application name", path)
	}
	return s.ImportTable(t)
}

// Apps returns the stored application names, sorted.
func (s *Store) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.apps))
	for app := range s.apps {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of stored records for app.
func (s *Store) Count(app string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	part, ok := s.apps[app]
	if !ok {
		return 0
	}
	return len(part.records)
}

// ParamNames returns app's parameter columns.
func (s *Store) ParamNames(app string) ([]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	part, ok := s.apps[app]
	if !ok {
		return nil, false
	}
	return append([]string(nil), part.paramNames...), true
}

// Table materializes app's records as a dataset table in append order
// (deterministic: the file is append-only and dedup makes re-ingest a
// no-op).
func (s *Store) Table(app string) (*dataset.Table, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	part, ok := s.apps[app]
	if !ok {
		return nil, false
	}
	t := dataset.NewTable(app, part.paramNames)
	for _, rec := range part.records {
		t.Add(dataset.Run{Params: rec.Params, Scale: rec.Scale, Runtime: rec.Runtime})
	}
	return t, true
}

// Compact rewrites app's partition file from the in-memory index —
// dropping any duplicate lines a crashed retry may have left — using
// the temp+rename idiom, so concurrent readers of the file never see a
// torn state. The index must cover the whole file (Refresh first): the
// rewrite holds the appenders' lock on the file it replaces, so no
// append can land there unseen, and appenders that waited on the lock
// write to the new file.
func (s *Store) Compact(app string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	part, ok := s.apps[app]
	if !ok {
		return fmt.Errorf("pipeline: unknown app %q", app)
	}
	path := s.path(app)
	old, err := os.Open(path)
	if err != nil {
		return err
	}
	defer old.Close() // releases the lock, after the rename
	cur, err := lockCurrent(old, path)
	if err != nil {
		return err
	}
	if cur == nil || !os.SameFile(cur, part.file) || cur.Size() != part.off {
		return fmt.Errorf("pipeline: %s changed since this store read it; Refresh before Compact", path)
	}
	tmp, err := os.CreateTemp(s.dir, "."+app+".jsonl.tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriter(tmp)
	if err := writePartition(w, app, part); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	fi, err := tmp.Stat()
	if err != nil {
		return err
	}
	// CreateTemp uses 0600; match the permissions of a fresh partition.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // the deferred cleanup no longer owns the file
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name)
		return err
	}
	part.file, part.off = fi, fi.Size()
	return nil
}

// writePartition streams header + records as JSONL.
func writePartition(w io.Writer, app string, part *appPartition) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(storeHeader{App: app, ParamNames: part.paramNames}); err != nil {
		return err
	}
	for _, rec := range part.records {
		fileRec := rec
		fileRec.App = ""
		if err := enc.Encode(fileRec); err != nil {
			return err
		}
	}
	return nil
}
