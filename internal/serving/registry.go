// Package serving exposes trained two-level models over an HTTP JSON
// API: a versioned model registry with atomic hot-swap, an LRU
// prediction cache with single-flight deduplication, stdlib-only
// handlers, and an atomics-based metrics layer exported as JSON.
//
// The design leans on one invariant of core.TwoLevelModel: every
// prediction method is a pure read (all scratch state is allocated per
// call), so an arbitrary number of request goroutines may share one
// model value. Hot-swapping installs a fresh *Entry behind an
// atomic.Pointer snapshot; in-flight requests keep predicting against
// the entry they resolved at admission and simply finish on the old
// model.
package serving

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Source names a model file the registry (re)loads from disk.
type Source struct {
	Name string
	Path string
}

// Entry is one immutable loaded model. Entries are never mutated after
// publication; a reload that changes a model installs a new Entry.
type Entry struct {
	Name     string
	Version  int    // bumped on every content change of this name
	Path     string // "" for models installed in-process
	SHA256   string // content hash of the model file ("" when in-process)
	LoadedAt time.Time
	Model    *core.TwoLevelModel

	// Generation is the training pipeline's generation counter carried in
	// the model's metadata; 0 for models trained outside the pipeline.
	Generation int
}

// snapshot is the immutable view readers dereference with one atomic load.
type snapshot struct {
	entries map[string]*Entry
}

// Registry holds named model versions. Reads (Get, List, Len) are
// lock-free snapshot dereferences; Reload and Install serialize on a
// mutex and publish a fresh snapshot atomically, so readers never block
// on a reload and never observe a half-updated set.
type Registry struct {
	mu      sync.Mutex // serializes writers only
	sources []Source
	snap    atomic.Pointer[snapshot]
	reloads atomic.Int64

	// Pipeline observability: outcome of the latest Reload and the
	// latest promotion-hook event, exported on /metrics so a stuck
	// pipeline is visible to operators. Outcomes are counted in the obs
	// registry (PipelineCycles), not here.
	lastReload    atomic.Pointer[ReloadStatus]
	lastPromotion atomic.Pointer[PromotionStatus]
}

// ReloadStatus is the outcome of the most recent Reload.
type ReloadStatus struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Promotion outcomes reported through NotePromotion and counted in
// pipeline_cycles_total; internal/pipeline's journal event names are
// these same constants.
const (
	PromotionPromoted = "promoted"
	PromotionRejected = "rejected"
	PromotionRollback = "rollback"
)

// PromotionStatus is one training-pipeline event as seen by the
// serving layer.
type PromotionStatus struct {
	App        string `json:"app"`
	Generation int    `json:"generation"`
	Outcome    string `json:"outcome"` // promoted | rejected | rollback
	Detail     string `json:"detail,omitempty"`
}

// NewRegistry creates an empty registry over the given disk sources.
// Call Reload to perform the initial load.
func NewRegistry(sources ...Source) *Registry {
	r := &Registry{sources: slices.Clone(sources)}
	r.snap.Store(&snapshot{entries: map[string]*Entry{}})
	return r
}

// Reload (re)loads every source from disk and atomically swaps the
// published snapshot. Per-source failures keep that name's previous
// entry (if any) and are joined into the returned error, so one corrupt
// file cannot take down models that are already serving. A source whose
// bytes are unchanged keeps its current entry and version, making
// repeated reloads cache-friendly. Entries installed with Install (not
// backed by a source) are preserved.
func (r *Registry) Reload() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load().entries
	next := make(map[string]*Entry, len(old))
	sourced := make(map[string]bool, len(r.sources))
	var errs []error
	for _, src := range r.sources {
		sourced[src.Name] = true
		prev := old[src.Name]
		e, err := loadEntry(src, prev)
		if err != nil {
			if prev != nil {
				next[src.Name] = prev
			}
			// Name the model AND the failing path: loadEntry errors from the
			// decoder do not carry the file, and an operator chasing a stuck
			// pipeline needs to know which artifact to inspect.
			errs = append(errs, fmt.Errorf("model %q (%s): %w", src.Name, src.Path, err))
			continue
		}
		next[src.Name] = e
	}
	for name, e := range old {
		if !sourced[name] && e.Path == "" {
			next[name] = e
		}
	}
	r.snap.Store(&snapshot{entries: next})
	r.reloads.Add(1)
	err := errors.Join(errs...)
	st := &ReloadStatus{OK: err == nil}
	if err != nil {
		st.Error = err.Error()
	}
	r.lastReload.Store(st)
	return err
}

// loadEntry reads and validates one source, reusing prev when the file
// content is byte-identical.
func loadEntry(src Source, prev *Entry) (*Entry, error) {
	raw, err := os.ReadFile(src.Path)
	if err != nil {
		return nil, err
	}
	sum := fmt.Sprintf("%x", sha256.Sum256(raw))
	if prev != nil && prev.SHA256 == sum {
		return prev, nil
	}
	m, err := core.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	version := 1
	if prev != nil {
		version = prev.Version + 1
	}
	return &Entry{
		Name:       src.Name,
		Version:    version,
		Path:       src.Path,
		SHA256:     sum,
		LoadedAt:   time.Now(),
		Model:      m,
		Generation: m.Meta.Generation,
	}, nil
}

// Install publishes an in-memory model under a name, bypassing disk.
// Useful for embedding the server in another process and for tests.
func (r *Registry) Install(name string, m *core.TwoLevelModel) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load().entries
	version := 1
	if prev, ok := old[name]; ok {
		version = prev.Version + 1
	}
	e := &Entry{Name: name, Version: version, LoadedAt: time.Now(), Model: m, Generation: m.Meta.Generation}
	next := maps.Clone(old)
	next[name] = e
	r.snap.Store(&snapshot{entries: next})
	return e
}

// Get resolves a model by name. The empty name resolves to the only
// model when exactly one is loaded, and to "default" otherwise.
func (r *Registry) Get(name string) (*Entry, bool) {
	s := r.snap.Load()
	if name == "" {
		if len(s.entries) == 1 {
			for _, e := range s.entries {
				return e, true
			}
		}
		name = "default"
	}
	e, ok := s.entries[name]
	return e, ok
}

// List returns the current entries sorted by name.
func (r *Registry) List() []*Entry {
	s := r.snap.Load()
	out := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b *Entry) int {
		switch {
		case a.Name < b.Name:
			return -1
		case a.Name > b.Name:
			return 1
		}
		return 0
	})
	return out
}

// Len returns the number of loaded models.
func (r *Registry) Len() int { return len(r.snap.Load().entries) }

// Reloads returns how many times Reload has completed.
func (r *Registry) Reloads() int64 { return r.reloads.Load() }

// LastReload returns the most recent Reload outcome, or nil before the
// first Reload.
func (r *Registry) LastReload() *ReloadStatus { return r.lastReload.Load() }

// NotePromotion records the latest training-pipeline event (the
// promotion hook called by internal/pipeline) for /metrics.
func (r *Registry) NotePromotion(st PromotionStatus) { r.lastPromotion.Store(&st) }

// LastPromotion returns the most recent pipeline event, or nil when the
// promotion hook has never fired.
func (r *Registry) LastPromotion() *PromotionStatus { return r.lastPromotion.Load() }
