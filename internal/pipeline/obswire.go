package pipeline

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/serving"
)

// pipelineStages are the timed phases of one training cycle, in
// execution order. Each gets a span in the cycle's trace and a series
// of the pipeline_stage_duration_seconds histogram. "load" reads a model
// file: the incumbent, on a fresh process's first cycle, or a rollback
// target.
var pipelineStages = []string{"fit", "calibrate", "load", "gate", "promote"}

// stageBounds spans the plausible range of training-cycle stage
// latencies: sub-millisecond gate checks up to multi-second fits on
// large stores.
func stageBounds() []time.Duration {
	return []time.Duration{
		time.Millisecond,
		10 * time.Millisecond,
		100 * time.Millisecond,
		time.Second,
		10 * time.Second,
	}
}

// eventSkipped labels cycles that found nothing new to train on; it is
// counted but never journaled.
const eventSkipped = "skipped"

// pipelineObs holds the pipeline's observability handles. A nil
// *pipelineObs (EnableObs never called) turns every method into a
// no-op, so RunOnce needs no guards. Stage durations are measured by
// the trace spans (the obs clock boundary), so the histograms populate
// only when a tracer is attached — the pipeline itself stays
// clock-free either way.
type pipelineObs struct {
	tracer *obs.Tracer
	cycles map[string]*obs.Counter   // outcome (an Event* or eventSkipped) -> counter
	stages map[string]*obs.Histogram // stage name -> duration histogram
}

// EnableObs attaches a metrics registry and a trace ring to the
// pipeline. Each subsequent training cycle records a "pipeline"-kind
// trace named after the app with ID "run-<app>-gen<N>" and per-stage
// spans (fit, calibrate, load, gate, promote), increments
// pipeline_cycles_total by outcome (rollbacks included), and feeds the span durations into
// pipeline_stage_duration_seconds. Either argument may be nil to
// enable only the other half. Call before the first cycle; not safe
// concurrently with RunOnce.
func (p *Pipeline) EnableObs(reg *obs.Registry, tracer *obs.Tracer) {
	po := &pipelineObs{tracer: tracer}
	if reg != nil {
		po.cycles = map[string]*obs.Counter{}
		for _, ev := range []string{EventPromoted, EventRejected, EventRollback, eventSkipped} {
			po.cycles[ev] = serving.PipelineCycles(reg, ev)
		}
		po.stages = map[string]*obs.Histogram{}
		for _, st := range pipelineStages {
			po.stages[st] = reg.Histogram("pipeline_stage_duration_seconds",
				"Latency of training-cycle stages.", stageBounds(), obs.L("stage", st))
		}
	}
	p.obs = po
}

// startRun opens the trace for one training cycle. The run ID is
// deterministic — "run-<app>-gen<N>" — so journal origins and traces
// cross-reference by construction.
func (po *pipelineObs) startRun(app string, gen int) *obs.ReqTrace {
	return po.startTrace(app, fmt.Sprintf("run-%s-gen%d", app, gen))
}

// startTrace opens a "pipeline"-kind trace named after app.
func (po *pipelineObs) startTrace(app, id string) *obs.ReqTrace {
	if po == nil || po.tracer == nil {
		return nil
	}
	return po.tracer.StartRequest("pipeline", app, id)
}

// stage closes the span opened by rt.StartSpan under name and feeds
// its duration into the stage histogram. With tracing off the duration
// is 0 (no clock was read) and nothing is recorded.
func (po *pipelineObs) stage(rt *obs.ReqTrace, name string, c obs.SpanClock) {
	if po == nil {
		return
	}
	d := rt.EndSpan(name, c)
	if d <= 0 || po.stages == nil {
		return
	}
	if h := po.stages[name]; h != nil {
		h.Observe(d)
	}
}

// count increments the outcome counter.
func (po *pipelineObs) count(event string) {
	if po == nil || po.cycles == nil {
		return
	}
	if c := po.cycles[event]; c != nil {
		c.Inc()
	}
}
