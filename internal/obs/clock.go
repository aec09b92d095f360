package obs

import "time"

// This file is the ONLY sanctioned wall-clock boundary in internal/obs
// (pinned by wallClockAllowedFiles in internal/lint and its frozen-list
// test). Everything here converts clock reads into opaque SpanClock
// values or plain Durations at the moment of measurement, so
// clock-restricted core packages can time their stages without ever
// holding a time.Time themselves — the same boundary discipline
// internal/loadctl uses for admission timing. Do not add wall-clock
// reads to any other file in this package.

// SpanClock marks a span's start instant; obtain one from
// ReqTrace.StartSpan and hand it back to EndSpan.
type SpanClock struct {
	t0 time.Time
}

// StartRequest begins a trace of the given kind ("request" or
// "pipeline") and name (endpoint or application), stamped with the
// current instant. A nil tracer returns a nil ReqTrace, which makes
// every downstream span call a no-op.
func (t *Tracer) StartRequest(kind, name, id string) *ReqTrace {
	if t == nil {
		return nil
	}
	rt := t.pool.Get().(*ReqTrace)
	rt.tracer = t
	rt.id = id
	rt.kind = kind
	rt.name = name
	rt.t0 = time.Now()
	return rt
}

// StartSpan marks the start of a span inside rt. Nil-safe: with
// tracing off it returns a zero SpanClock without touching the clock.
func (rt *ReqTrace) StartSpan() SpanClock {
	if rt == nil {
		return SpanClock{}
	}
	return SpanClock{t0: time.Now()}
}

// EndSpan closes the span opened by StartSpan under the given name and
// returns its duration (0 for a nil trace), so callers can feed the
// same measurement into a stage histogram without a second clock read.
func (rt *ReqTrace) EndSpan(name string, c SpanClock) time.Duration {
	if rt == nil {
		return 0
	}
	d := time.Since(c.t0)
	rt.AddSpan(name, c.t0.Sub(rt.t0), d)
	return d
}

// Finish completes the trace with an HTTP-style status code (0 when
// not applicable) and files it into the tracer's ring. rt must not be
// used after Finish. Nil-safe.
func (rt *ReqTrace) Finish(status int) {
	if rt == nil {
		return
	}
	rt.tracer.record(rt, status, time.Since(rt.t0))
}
