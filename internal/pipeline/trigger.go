package pipeline

import "fmt"

// The retrain policy: an application is due for a training cycle when
// at least MinNewRecords records arrived since its last handled cycle,
// or when it was explicitly kicked. RunOnce asks due, runs the cycle,
// and decide marks it handled, so a rejected candidate still consumes
// its trigger (no retrain storm over unchanged data; Kick forces a
// rerun). The state lives on Pipeline under trigMu, because Kick
// arrives from the serving drift hook while the driver runs cycles.

// kickInfo is one pending forced retrain: why it was requested and the
// opaque origin identifier (e.g. the HTTP request ID of the observation
// that breached the drift floor) for end-to-end traceability.
type kickInfo struct {
	reason string
	origin string
}

// Kick forces the next RunOnce for app to retrain regardless of how
// many records arrived. reason, when set, names the signal in the
// cycle's journal entry (e.g. a drift monitor's coverage-breach
// diagnosis); origin is the identity the signal arrived with —
// typically the X-Request-Id of the /v1/observe call whose observation
// breached the drift floor — and the journal persists it as Origin,
// closing the trace from ingest to promotion. Both may be empty. A
// pending kick with a reason is kept: the first cause wins until a
// cycle consumes it.
func (p *Pipeline) Kick(app, reason, origin string) {
	p.trigMu.Lock()
	defer p.trigMu.Unlock()
	if cur, ok := p.kicked[app]; !ok || cur.reason == "" {
		p.kicked[app] = kickInfo{reason: reason, origin: origin}
	}
}

// due reports whether app should retrain given its current record
// count, with a human-readable reason either way, and the pending
// kick's origin ("" for count-policy cycles).
func (p *Pipeline) due(app string, count int) (ok bool, why, origin string) {
	p.trigMu.Lock()
	defer p.trigMu.Unlock()
	if k, ok := p.kicked[app]; ok {
		if k.reason == "" {
			return true, "kicked", k.origin
		}
		return true, "kicked: " + k.reason, k.origin
	}
	fresh := count - p.seen[app]
	if fresh >= p.cfg.MinNewRecords {
		return true, fmt.Sprintf("%d new records (threshold %d)", fresh, p.cfg.MinNewRecords), ""
	}
	return false, fmt.Sprintf("%d of %d new records", fresh, p.cfg.MinNewRecords), ""
}

// mark acknowledges a handled cycle: the kick (if any) is consumed and
// the record count becomes the new baseline, which never moves back.
func (p *Pipeline) mark(app string, count int) {
	p.trigMu.Lock()
	defer p.trigMu.Unlock()
	delete(p.kicked, app)
	if count > p.seen[app] {
		p.seen[app] = count
	}
}
