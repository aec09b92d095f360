package pipeline

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
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
// one JSONL file per application under a root directory. Appends are
// fsync'd so an acknowledged record survives a crash; rewrites
// (Compact) go through the temp+rename idiom so readers never observe
// a torn file. Records are deduplicated by content hash, making both
// re-imports of the same CSV and crash-retry appends idempotent.
//
// File layout: line 1 is a header object naming the application and its
// parameter columns; every further line is one record. The file is
// self-contained — it can be rebuilt into a dataset.Table without
// external schema.
type Store struct {
	dir string

	mu   sync.Mutex
	apps map[string]*appPartition
	torn []TornTail // cut off by scans, until TornTails hands them out
}

// appPartition is the in-memory index of one application's file.
type appPartition struct {
	paramNames []string
	hashes     map[string]bool
	records    []Record
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

// Hash returns the record's content hash (hex), the dedup key.
func (rec Record) Hash() string {
	var b strings.Builder
	b.WriteString(rec.App)
	b.WriteByte('|')
	for i, v := range rec.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(rec.Scale))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(rec.Runtime, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(rec.Rep))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
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

// Refresh re-indexes the store from disk, picking up partitions and
// records appended by other processes (e.g. `pipeline ingest` feeding a
// server's embedded pipeline). Partition files are append-only and every
// in-process Append reaches disk before returning, so a rescan is the
// authoritative state; on error the previous index is kept.
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scanLocked()
}

// scanLocked rebuilds the partition index from the directory. Callers
// hold s.mu (or own the store exclusively, as in OpenStore). The index
// is replaced only after every partition read cleanly.
func (s *Store) scanLocked() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	apps := map[string]*appPartition{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		app := strings.TrimSuffix(e.Name(), ".jsonl")
		part, torn, err := readPartition(filepath.Join(s.dir, e.Name()), app)
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

// readPartition loads and indexes one partition file. A torn last line
// is cut off and reported; a file that held only a torn header is
// removed, and comes back as a nil partition.
func readPartition(path, app string) (*appPartition, *TornTail, error) {
	var part *appPartition
	torn, err := scanLines(path, func(b []byte) error {
		if part == nil {
			var hdr storeHeader
			if err := json.Unmarshal(b, &hdr); err != nil {
				return fmt.Errorf("header: %w", err)
			}
			if hdr.App != app {
				return fmt.Errorf("header names app %q, file is partition %q", hdr.App, app)
			}
			part = &appPartition{paramNames: hdr.ParamNames, hashes: map[string]bool{}}
			return nil
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return err
		}
		rec.App = app
		if len(rec.Params) != len(part.paramNames) {
			return fmt.Errorf("%d params, partition has %d columns", len(rec.Params), len(part.paramNames))
		}
		h := rec.Hash()
		if part.hashes[h] {
			return nil // duplicate left behind before a Compact
		}
		part.hashes[h] = true
		part.records = append(part.records, rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if part == nil {
		if torn == nil {
			return nil, nil, fmt.Errorf("pipeline: %s: empty partition file", path)
		}
		if err := os.Remove(path); err != nil {
			return nil, nil, err
		}
	}
	return part, torn, nil
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
// when the record is a duplicate of one already stored. The write is
// flushed and fsync'd before Append returns.
func (s *Store) Append(paramNames []string, rec Record) (bool, error) {
	if err := validAppName(rec.App); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	part, ok := s.apps[rec.App]
	if !ok {
		if len(paramNames) == 0 {
			return false, fmt.Errorf("pipeline: first record for %q needs parameter names", rec.App)
		}
		hdr, err := json.Marshal(storeHeader{App: rec.App, ParamNames: paramNames})
		if err != nil {
			return false, err
		}
		if err := appendLine(s.path(rec.App), hdr, true); err != nil {
			return false, err
		}
		part = &appPartition{paramNames: append([]string(nil), paramNames...), hashes: map[string]bool{}}
		s.apps[rec.App] = part
	}
	if len(rec.Params) != len(part.paramNames) {
		return false, fmt.Errorf("pipeline: record for %q has %d params, partition has %d columns (%v)",
			rec.App, len(rec.Params), len(part.paramNames), part.paramNames)
	}
	h := rec.Hash()
	if part.hashes[h] {
		return false, nil
	}
	fileRec := rec
	fileRec.App = "" // implied by the partition; keeps lines compact
	line, err := json.Marshal(fileRec)
	if err != nil {
		return false, err
	}
	if err := appendLine(s.path(rec.App), line, false); err != nil {
		return false, err
	}
	part.hashes[h] = true
	part.records = append(part.records, rec)
	return true, nil
}

// ImportTable appends every run of a dataset table under its App name,
// returning how many records were new vs. deduplicated. Runs that
// repeat a byte-identical measurement within the table get ascending
// repetition indices, so legitimate repeats are all stored while a
// re-import of the same table stays a no-op.
func (s *Store) ImportTable(t *dataset.Table) (added, skipped int, err error) {
	seen := map[string]int{}
	for _, run := range t.Runs {
		key := Record{Params: run.Params, Scale: run.Scale, Runtime: run.Runtime}.Hash()
		rep := seen[key]
		seen[key] = rep + 1
		ok, err := s.Append(t.ParamNames, Record{
			App: t.App, Params: run.Params, Scale: run.Scale, Runtime: run.Runtime, Rep: rep,
		})
		if err != nil {
			return added, skipped, err
		}
		if ok {
			added++
		} else {
			skipped++
		}
	}
	return added, skipped, nil
}

// ImportCSV reads an execution-history CSV (the dataset package's
// format) and appends its runs.
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
// torn state.
func (s *Store) Compact(app string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	part, ok := s.apps[app]
	if !ok {
		return fmt.Errorf("pipeline: unknown app %q", app)
	}
	path := s.path(app)
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
