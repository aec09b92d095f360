package pipeline

import (
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
)

// The promotion stage: the generations directory holds one model file
// per promoted generation (named app-gen000042.json), written with
// core.Save's temp+rename protocol, so a serving process reloading from
// disk can never observe a torn file. Files of superseded generations
// are kept — they are the rollback targets and the audit trail's
// artifacts.

// ModelPath returns the on-disk path of one generation's model file.
func (p *Pipeline) ModelPath(app string, gen int) string {
	return filepath.Join(p.dir, fmt.Sprintf("%s-gen%06d.json", app, gen))
}

// writeGeneration atomically writes the candidate as a
// generation-numbered model file and returns its path and the SHA-256
// of its bytes, hashed as they stream to disk. It is the first step of
// a promotion: the journal entry and registry install follow in decide,
// so a crash between them is recovered by InstallActive.
func (p *Pipeline) writeGeneration(m *core.TwoLevelModel, app string, gen int) (path, sha string, err error) {
	path = p.ModelPath(app, gen)
	sum, err := m.SaveSHA256(path)
	if err != nil {
		return "", "", err
	}
	return path, fmt.Sprintf("%x", sum), nil
}

// incumbent returns app's active generation and its model. That is the
// model this pipeline last installed (decide and InstallActive keep it),
// so the file is read only on first use in a fresh process, timed as
// the load stage of rt. A nil model with a nil error means no
// generation has been promoted.
func (p *Pipeline) incumbent(app string, rt *obs.ReqTrace) (*core.TwoLevelModel, int, error) {
	gen, ok := p.journal.Active(app)
	if !ok {
		return nil, 0, nil
	}
	if a, ok := p.active[app]; ok && a.gen == gen {
		return a.model, gen, nil
	}
	m, err := p.load(app, gen, rt)
	if err != nil {
		return nil, 0, fmt.Errorf("active generation %d: %w", gen, err)
	}
	p.active[app] = installed{gen: gen, model: m}
	return m, gen, nil
}

// load reads one generation's model file, timed as the load stage of rt.
func (p *Pipeline) load(app string, gen int, rt *obs.ReqTrace) (*core.TwoLevelModel, error) {
	c := rt.StartSpan()
	m, err := core.Load(p.ModelPath(app, gen))
	p.obs.stage(rt, "load", c)
	return m, err
}

// InstallActive loads every app's active generation from disk into the
// registry, so a restarted serve process resumes from the journal's
// state: the journal says what should be serving, the generations
// directory has the bytes. Apps without a promoted generation are
// skipped.
func (p *Pipeline) InstallActive() error {
	if p.reg == nil {
		return nil
	}
	apps := map[string]bool{}
	for _, e := range p.journal.Entries() {
		apps[e.App] = true
	}
	for _, app := range sortedKeys(apps) {
		m, _, err := p.incumbent(app, nil)
		if err != nil {
			return fmt.Errorf("pipeline: app %q: %w", app, err)
		}
		if m == nil {
			continue
		}
		p.reg.Install(app, m)
	}
	return nil
}

// Rollback reverts app to the generation promoted before the currently
// active one: the model file is re-read (timed as the load stage of a
// "rollback-<app>-gen<N>" trace), journaled as the new active
// generation, and hot-swapped into the registry. Rolling back twice
// walks back one more promotion each time until none remain. now is an
// optional timestamp stamped by the caller (the CLI boundary); empty
// keeps the journal deterministic.
func (p *Pipeline) Rollback(app, now string) (int, error) {
	cur, ok := p.journal.Active(app)
	if !ok {
		return 0, fmt.Errorf("pipeline: app %q has no promoted generation to roll back", app)
	}
	prev, ok := p.journal.PreviousPromoted(app, cur)
	if !ok {
		return 0, fmt.Errorf("pipeline: app %q has no generation before %d to roll back to", app, cur)
	}
	rt := p.obs.startTrace(app, fmt.Sprintf("rollback-%s-gen%d", app, prev))
	defer rt.Finish(0)
	m, err := p.load(app, prev, rt)
	if err != nil {
		return 0, fmt.Errorf("pipeline: loading rollback target gen %d: %w", prev, err)
	}
	if err := p.decide(Entry{
		Gen: prev, App: app, Event: EventRollback,
		Reason: fmt.Sprintf("rolled back from generation %d", cur), Time: now,
	}, m); err != nil {
		return 0, err
	}
	return prev, nil
}

// sortedKeys returns a map's keys in sorted order (deterministic
// iteration for installs and reports).
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
