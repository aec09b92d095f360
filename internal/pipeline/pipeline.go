// Package pipeline closes the loop from observed runs to served models:
// the model-lifecycle subsystem the paper's premise implies. History
// data accumulates — every small-scale execution is a new training
// sample — so a production deployment retrains as records arrive
// instead of shipping a frozen model.
//
// Four stages, each in its own file:
//
//   - ingest (store.go): an append-only, fsync'd JSONL run-record store,
//     partitioned per application, deduplicated by record content hash,
//     fed by Append or by CSV import through internal/dataset.
//   - trigger (trigger.go): the retrain policy — N new records per app
//     since the last training cycle, or an explicit Kick.
//   - gate (gate.go): candidate-vs-incumbent evaluation on a held-out,
//     deterministically chosen slice of the store; MAPE at the target
//     large scales with a per-scale breakdown. A candidate that
//     regresses past the configured threshold is rejected — journaled,
//     never promoted.
//   - promote (promote.go, journal.go): atomic install of the winner as
//     a generation-numbered model file (core.Save's temp+rename idiom),
//     a persisted audit journal keyed by a monotonic generation
//     counter, hot-swap into a serving.Registry, and one-step rollback.
//
// Determinism is a hard invariant: the package never reads the wall
// clock (timestamps are stamped at the cmd/ boundary and passed in) and
// never draws randomness outside internal/rng — the training seed is
// derived from the (app, generation) pair, so rerunning a cycle over
// the same store produces byte-identical model files and journal
// entries. Both properties are enforced by repolint (nowallclock,
// nodirectrand).
package pipeline

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/serving"
)

// Config parameterizes a Pipeline. The zero value selects sane defaults
// via New.
type Config struct {
	// Core is the model configuration handed to core.Fit for every
	// candidate. Zero fields default as in core.DefaultConfig.
	Core core.Config
	// Seed is the base random seed; the per-cycle generator is derived
	// from (Seed, app, generation) so cycles are independently seeded yet
	// exactly reproducible.
	Seed uint64
	// Gate configures candidate-vs-incumbent evaluation.
	Gate GateConfig
	// MinNewRecords is the trigger policy: retrain an app once this many
	// records arrived since its last training cycle. <= 0 means 1.
	MinNewRecords int
}

// Pipeline wires the four stages over one store and one generations
// directory. Methods are safe for a single driver goroutine; the
// underlying store and registry tolerate concurrent readers.
type Pipeline struct {
	cfg     Config
	store   *Store
	journal *Journal
	prom    *Promoter
	trigger *Trigger
	reg     *serving.Registry // optional; nil disables hot-swap
	obs     *pipelineObs      // optional; set by EnableObs
}

// CycleResult describes one RunOnce outcome.
type CycleResult struct {
	App      string
	Gen      int    // generation consumed by the cycle; 0 when skipped
	Skipped  bool   // trigger not due
	Reason   string // trigger or gate reasoning, human-readable
	Origin   string // originating request/run ID of the kick, "" for count-policy cycles
	Promoted bool
	Gate     GateResult
	Path     string // promoted model file, "" otherwise
}

// New opens (or creates) a pipeline over a record store and a
// generations directory holding model files and the audit journal.
// reg may be nil; when set, promotions and rollbacks hot-swap the
// registry entry named after the app. Trigger state is rebuilt from the
// journal so a restarted pipeline does not retrain on already-seen data.
func New(store *Store, dir string, cfg Config, reg *serving.Registry) (*Pipeline, error) {
	if cfg.MinNewRecords <= 0 {
		cfg.MinNewRecords = 1
	}
	cfg.Gate = cfg.Gate.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: creating generations dir: %w", err)
	}
	j, err := OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:     cfg,
		store:   store,
		journal: j,
		prom:    NewPromoter(dir, j, reg),
		trigger: NewTrigger(cfg.MinNewRecords),
		reg:     reg,
	}
	for app, n := range j.lastRecords() {
		p.trigger.Prime(app, n)
	}
	return p, nil
}

// Store returns the pipeline's run-record store.
func (p *Pipeline) Store() *Store { return p.store }

// Journal returns the pipeline's audit journal.
func (p *Pipeline) Journal() *Journal { return p.journal }

// Promoter returns the promotion stage (model files, rollback).
func (p *Pipeline) Promoter() *Promoter { return p.prom }

// Kick forces the next RunOnce for app to retrain regardless of how
// many records arrived.
func (p *Pipeline) Kick(app string) { p.trigger.Kick(app) }

// KickReason forces the next RunOnce for app to retrain and records why,
// so the cycle's journal entry names the signal (e.g. a drift monitor's
// coverage-breach diagnosis).
func (p *Pipeline) KickReason(app, reason string) { p.trigger.KickReason(app, reason) }

// KickOrigin is KickReason plus the originating identity — typically
// the X-Request-Id of the /v1/observe call whose observation breached
// the drift floor — which the cycle's journal entry persists as Origin,
// closing the trace from ingest to promotion.
func (p *Pipeline) KickOrigin(app, reason, origin string) { p.trigger.KickOrigin(app, reason, origin) }

// Rollback reverts app to the generation promoted before the currently
// active one and journals the event. now is an optional timestamp
// stamped by the caller (the CLI boundary); empty keeps the journal
// deterministic.
func (p *Pipeline) Rollback(app, now string) (int, error) {
	return p.prom.Rollback(app, now)
}

// InstallActive loads every app's active generation from disk into the
// registry, so a restarted serve process resumes from the journal's
// state. Apps without a promoted generation are skipped.
func (p *Pipeline) InstallActive() error {
	return p.prom.InstallActive()
}

// RunAll runs one cycle for every app in the store, in sorted order.
// Per-app errors abort the sweep (the store and journal are shared
// state; continuing past a journal write failure would corrupt the
// trigger bookkeeping).
func (p *Pipeline) RunAll(now string) ([]*CycleResult, error) {
	var out []*CycleResult
	for _, app := range p.store.Apps() {
		res, err := p.RunOnce(app, now)
		if err != nil {
			return out, fmt.Errorf("pipeline: app %q: %w", app, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// RunOnce executes one full cycle for app: trigger check, candidate
// training on the store's non-holdout slice, gate evaluation against
// the incumbent, and promotion (or journaled rejection). now is an
// optional caller-stamped timestamp recorded in journal entries; the
// pipeline itself never reads the clock.
func (p *Pipeline) RunOnce(app, now string) (*CycleResult, error) {
	count := p.store.Count(app)
	due, why := p.trigger.Due(app, count)
	if !due {
		p.obs.count("skipped")
		return &CycleResult{App: app, Skipped: true, Reason: why}, nil
	}
	// Origin rides with the pending kick; read it before Mark consumes it.
	origin := p.trigger.Origin(app)

	gen := p.journal.NextGen()
	res := &CycleResult{App: app, Gen: gen, Reason: why, Origin: origin}
	rt := p.obs.startRun(app, gen)
	defer rt.Finish(0)

	table, ok := p.store.Table(app)
	if !ok || table.Len() == 0 {
		return nil, fmt.Errorf("pipeline: app %q has no records", app)
	}
	train, holdout := SplitHoldout(table, p.cfg.Gate.HoldoutDenominator)

	fitClock := rt.StartSpan()
	cand, err := p.fitCandidate(app, gen, train)
	p.obs.stage(rt, "fit", fitClock)
	if err != nil {
		// A fit failure (e.g. too few complete configurations) is a
		// journaled rejection, not a pipeline error: the store may simply
		// not have accumulated enough data yet, and the serve loop must
		// keep running.
		res.Gate = GateResult{Reason: fmt.Sprintf("fit: %v", err)}
		if jerr := p.journal.Append(Entry{
			Gen: gen, App: app, Event: EventRejected,
			Reason: res.Gate.Reason, Records: count, Trigger: why, Origin: origin, Time: now,
		}); jerr != nil {
			return nil, jerr
		}
		p.obs.count(EventRejected)
		p.trigger.Mark(app, count)
		return res, nil
	}

	// Calibrate conformal intervals on the same holdout slice the gate
	// judges with: data the candidate never trained on, which is exactly
	// the exchangeability split-conformal needs. The artifact rides in
	// the model's metadata so it promotes (and hot-swaps) atomically with
	// the generation it describes.
	calClock := rt.StartSpan()
	cand.Meta.Calibration = calibrate(cand, holdout)
	p.obs.stage(rt, "calibrate", calClock)

	inc, incGen, err := p.prom.ActiveModel(app)
	if err != nil {
		return nil, fmt.Errorf("pipeline: loading incumbent for %q: %w", app, err)
	}

	gateClock := rt.StartSpan()
	res.Gate = EvaluateGate(cand, inc, holdout, cand.Cfg.LargeScales, p.cfg.Gate)
	p.obs.stage(rt, "gate", gateClock)
	entry := Entry{
		Gen:       gen,
		App:       app,
		Records:   count,
		TrainHash: cand.Meta.TrainHash,
		Incumbent: incGen,
		Gate:      &res.Gate,
		Trigger:   why,
		Origin:    origin,
		Time:      now,
	}
	if !res.Gate.Promote {
		entry.Event = EventRejected
		entry.Reason = res.Gate.Reason
		if err := p.journal.Append(entry); err != nil {
			return nil, err
		}
		p.obs.count(EventRejected)
		p.trigger.Mark(app, count)
		return res, nil
	}

	promClock := rt.StartSpan()
	path, sha, err := p.prom.Promote(cand, app, gen)
	p.obs.stage(rt, "promote", promClock)
	if err != nil {
		return nil, fmt.Errorf("pipeline: promoting %q gen %d: %w", app, gen, err)
	}
	entry.Event = EventPromoted
	entry.Reason = res.Gate.Reason
	entry.ModelPath = filepath.Base(path)
	entry.ModelSHA = sha
	if err := p.journal.Append(entry); err != nil {
		return nil, err
	}
	p.prom.install(app, gen, cand, "gate passed: "+res.Gate.Reason)
	p.obs.count(EventPromoted)
	p.trigger.Mark(app, count)
	res.Promoted = true
	res.Path = path
	return res, nil
}

// fitCandidate trains one candidate model with the cycle's derived seed
// and stamps its provenance metadata.
func (p *Pipeline) fitCandidate(app string, gen int, train *dataset.Table) (*core.TwoLevelModel, error) {
	m, err := core.Fit(deriveRNG(p.cfg.Seed, app, gen), train, p.cfg.Core)
	if err != nil {
		return nil, err
	}
	m.Meta = core.ModelMeta{App: app, Generation: gen, TrainHash: TableHash(train)}
	return m, nil
}

// deriveRNG returns the generator for one (app, generation) cycle: the
// app selects an rng stream (FNV-1a of its name xor'd into the seed)
// and the generation selects the stream's position, so every cycle
// draws an independent sequence yet reruns of the same cycle are
// byte-identical.
func deriveRNG(seed uint64, app string, gen int) *rng.Source {
	return rng.NewStream(seed^fnvHash(app), uint64(gen))
}

// fnvHash is FNV-1a of s — stable across runs and Go releases.
func fnvHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // hash.Hash.Write never fails
	return h.Sum64()
}

// TableHash returns the SHA-256 hex digest of the table's canonical CSV
// serialization; two tables hash equal iff they hold the same runs in
// the same order.
func TableHash(t *dataset.Table) string {
	h := sha256.New()
	if err := t.WriteCSV(h); err != nil {
		// hash.Hash.Write never fails, so WriteCSV over it cannot either;
		// keep the impossible branch loud rather than silent.
		panic(fmt.Sprintf("pipeline: hashing table: %v", err))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
