package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/serving"
)

// runner carries one benchmark run's state.
type runner struct {
	ctx     context.Context
	env     env
	w       *workload
	seed    uint64
	seconds time.Duration
	sz      sizes
	in      *inputs
	tr      *traffic
	client  *http.Client
	setup   *setupResult
	oracle  *oracle
	probe   request // the point request set-up and retrain rounds poll with
	notes   []string

	// Every /v1/predict and /v1/observe the run sent after set-up; each is
	// checked against the oracle.
	checked []*outcome
}

// stream returns the run's rng stream for one purpose.
func (r *runner) stream(purpose uint64) *rng.Source { return rng.NewStream(r.seed, purpose) }

// note records one line of the human-readable report.
func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// prepare generates the run's inputs and writes the history CSV. None
// of it is on the set-up clock.
func (r *runner) prepare() error {
	if err := os.RemoveAll(r.env.work); err != nil {
		return err
	}
	if err := os.MkdirAll(r.env.work, 0o755); err != nil {
		return err
	}
	in, err := newInputs(r.seed, r.sz)
	if err != nil {
		return err
	}
	r.in = in
	r.tr = newTraffic(in, r.w)
	if err := os.WriteFile(filepath.Join(r.env.work, "history.csv"), in.csv, 0o644); err != nil {
		return err
	}
	body, err := json.Marshal(serving.PredictRequest{Model: appName, Params: in.heldOut[0]})
	if err != nil {
		return err
	}
	r.probe = request{class: point, id: "probe", configs: [][]float64{in.heldOut[0]}, body: body}
	r.client = newClient(senders())
	return nil
}

// setUps runs the timed set-ups, keeps the last server running and
// returns every set-up's duration.
func (r *runner) setUps(n int) ([]time.Duration, error) {
	var durs []time.Duration
	csv := filepath.Join(r.env.work, "history.csv")
	var firsts [][]byte
	for k := 0; k < n; k++ {
		s, err := r.env.setUp(r.ctx, k, csv, r.probe.body, r.sz.roundRecords())
		if err != nil {
			return nil, err
		}
		durs = append(durs, s.dur)
		firsts = append(firsts, s.first)
		if k < n-1 {
			s.srv.stop()
		} else {
			r.setup = s
		}
	}
	r.oracle = newOracle(r.setup.gens)
	for i, b := range firsts {
		if err := r.oracle.check(&r.probe, b); err != nil {
			return nil, fmt.Errorf("set-up %d answered wrongly: %w", i, err)
		}
	}
	return durs, nil
}

// warm sends the workload's warm-up requests, all at once, so a
// cache-hit workload starts with a full cache.
func (r *runner) warm() {
	outs := drive(r.ctx, r.client, r.setup.srv.base, r.tr.warmup(), false)
	r.checked = append(r.checked, ptrs(outs)...)
}

// phase drives one schedule and keeps its outcomes for checking.
func (r *runner) phase(reqs []request) []outcome {
	outs := drive(r.ctx, r.client, r.setup.srv.base, reqs, true)
	r.checked = append(r.checked, ptrs(outs)...)
	return outs
}

// scrape fetches the server's /metrics JSON document.
func (r *runner) scrape() (*serving.Snapshot, error) {
	resp, err := r.client.Get(r.setup.srv.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s serving.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &s, nil
}

// classStats summarises one class's latencies in a phase.
type classStats struct {
	n        int
	p50, p99 float64 // ms
}

// latencies splits a phase's correct-status outcomes by class.
func latencies(outs []outcome) [nClasses]classStats {
	var lat [nClasses][]float64
	for i := range outs {
		o := &outs[i]
		if o.dropped || o.err != nil || o.status != http.StatusOK {
			continue
		}
		lat[o.req.class] = append(lat[o.req.class], ms(o.latency()))
	}
	var out [nClasses]classStats
	for c := range lat {
		out[c] = classStats{n: len(lat[c]), p50: quantile(lat[c], 0.5), p99: quantile(lat[c], 0.99)}
	}
	return out
}

// genStats is the generator's own account of a phase.
type genStats struct {
	sent, dropped, queued int
	// lateP50 and lateP99 are how late the generator woke for arrivals a
	// free sender was waiting for; queueP99 is how long queued arrivals
	// waited for a connection. All in ms.
	lateP50, lateP99, queueP99 float64
}

func generatorStats(outs []outcome) genStats {
	var g genStats
	var late, queue []float64
	for i := range outs {
		o := &outs[i]
		switch {
		case o.dropped:
			g.dropped++
			continue
		case o.queued:
			g.queued++
			queue = append(queue, ms(o.lateness()))
		default:
			late = append(late, ms(o.lateness()))
		}
		g.sent++
	}
	g.lateP50 = quantile(late, 0.5)
	g.lateP99 = quantile(late, 0.99)
	g.queueP99 = quantile(queue, 0.99)
	return g
}

// probeResult is one capacity probe.
type probeResult struct {
	rate  float64
	score float64 // worst p99/limit over classes and generator lateness; > 1 fails
}

// score judges a probe: the worst ratio of a class's p99 latency to its
// limit, or of the generator's lateness p99 to maxLate. Any non-200,
// transport error or dropped arrival fails the probe outright.
func (r *runner) score(outs []outcome) float64 {
	worst := 0.0
	for i := range outs {
		o := &outs[i]
		if o.dropped || o.err != nil || o.status != http.StatusOK {
			worst = 2
		}
	}
	for c, st := range latencies(outs) {
		if st.n > 0 {
			worst = math.Max(worst, st.p99/ms(limits[c]))
		}
	}
	if g := generatorStats(outs); !math.IsNaN(g.lateP99) {
		worst = math.Max(worst, g.lateP99/ms(maxLate))
	}
	return worst
}

// capacity searches for the highest offered rate whose probe meets every
// limit: from eight times the fixed rate it doubles until a probe fails
// (or halves until one passes), then bisects geometrically. The estimate interpolates, on a log
// rate scale, where the score crosses 1 between the highest passing and
// the lowest failing probe.
func (r *runner) capacity() (float64, []probeResult, error) {
	dur := time.Duration(r.sz.ProbeSec * float64(time.Second))
	lo, hi := probeResult{}, probeResult{rate: math.Inf(1)}
	rate := 8 * r.w.rate
	var probes []probeResult
	for i := 0; i < r.sz.Probes; i++ {
		reqs, err := r.tr.schedule(r.stream(uint64(200+i)), rate, dur)
		if err != nil {
			return 0, nil, err
		}
		outs := r.phase(reqs)
		p := probeResult{rate: rate, score: r.score(outs)}
		probes = append(probes, p)
		lat, g := latencies(outs), generatorStats(outs)
		r.note("probe %.0f/s score %.3f: p99 point %.2f interval %.2f batch %.2f observe %.2f ms; late p99 %.3f ms, %d queued p99 %.3f ms, %d dropped",
			rate, p.score, lat[point].p99, lat[interval].p99, lat[batch].p99, lat[observe].p99, g.lateP99, g.queued, g.queueP99, g.dropped)
		if p.score <= 1 {
			lo = p
		} else {
			hi = p
		}
		switch {
		case math.IsInf(hi.rate, 1):
			rate = lo.rate * 2
		case lo.rate == 0:
			rate = hi.rate / 2
		default:
			rate = math.Sqrt(lo.rate * hi.rate)
		}
		time.Sleep(200 * time.Millisecond) // let the server drain between probes
	}
	switch {
	case lo.rate == 0:
		return 0, probes, fmt.Errorf("no capacity probe met the limits; the lowest tried was %.0f/s", hi.rate)
	case math.IsInf(hi.rate, 1):
		r.note("capacity_rps is a lower bound: every probe up to %.0f/s met the limits", lo.rate)
		return lo.rate, probes, nil
	}
	f := (1 - lo.score) / (hi.score - lo.score)
	return math.Exp(math.Log(lo.rate) + f*(math.Log(hi.rate)-math.Log(lo.rate))), probes, nil
}

// retrainRounds appends the run's rounds of new history to the server's
// store with pipeline.Store.Append and times each round from its last
// acknowledged append to the first /v1/predict answer carrying the next
// model version. A round the gate rejects, or that does not promote
// within roundTimeout, is failed.
func (r *runner) retrainRounds() (durs []time.Duration, failed int, err error) {
	const roundTimeout = 30 * time.Second
	st, err := pipeline.OpenStore(r.setup.store)
	if err != nil {
		return nil, 0, err
	}
	journal := filepath.Join(r.setup.gens, "journal.jsonl")
	version := 1
	for k := 0; k < r.sz.Rounds; k++ {
		runs, err := r.in.roundRecords(k)
		if err != nil {
			return nil, 0, err
		}
		rejectedBefore, err := rejections(journal)
		if err != nil {
			return nil, 0, err
		}
		for _, run := range runs {
			added, err := st.Append(r.in.names, pipeline.Record{App: appName, Params: run.Params, Scale: run.Scale, Runtime: run.Runtime})
			if err != nil {
				return nil, 0, err
			}
			if !added {
				return nil, 0, fmt.Errorf("round %d appended a duplicate record", k)
			}
		}
		ack := time.Now()
		for i := 0; ; i++ {
			if err := r.ctx.Err(); err != nil {
				return nil, 0, err
			}
			status, body, err := send(r.ctx, r.client, r.setup.srv.base+r.probe.path(), r.probe.id, r.probe.body)
			got := time.Since(ack)
			r.checked = append(r.checked, &outcome{req: &r.probe, status: status, body: body, err: err})
			if err == nil && status == http.StatusOK {
				var v struct{ Version int }
				if err := json.Unmarshal(body, &v); err != nil {
					return nil, 0, err
				}
				if v.Version > version {
					version = v.Version
					durs = append(durs, got)
					break
				}
			}
			if i%20 == 19 {
				n, err := rejections(journal)
				if err != nil {
					return nil, 0, err
				}
				if n > rejectedBefore || got > roundTimeout {
					r.note("retrain round %d did not promote (%d gate rejections, %.1fs)", k, n-rejectedBefore, got.Seconds())
					failed++
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return durs, failed, nil
}

// rejections counts the gate rejections in the pipeline journal.
func rejections(path string) (int, error) {
	j, err := pipeline.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range j.Entries() {
		if e.Event == pipeline.EventRejected {
			n++
		}
	}
	return n, nil
}

// accuracy asks for every held-out configuration's interval and scores
// the answer against the simulator.
func (r *runner) accuracy() (mape, cover float64, err error) {
	req := r.in.heldOutRequest()
	status, body, err := send(r.ctx, r.client, r.setup.srv.base+req.path(), req.id, req.body)
	if err != nil {
		return 0, 0, err
	}
	r.checked = append(r.checked, &outcome{req: &req, status: status, body: body})
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("held-out request: status %d: %s", status, body)
	}
	var resp serving.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, 0, err
	}
	return r.in.accuracy(resp.Results)
}

// crossCheck compares the client's account of /v1/predict with the
// server's /metrics deltas: every request the server counted was sent,
// and the 200s and 503s agree.
func crossCheck(before, after *serving.Snapshot, t tally) error {
	ep := func(s *serving.Snapshot) serving.EndpointSnapshot { return s.Endpoints["predict"] }
	reqs := ep(after).Requests - ep(before).Requests
	errs := ep(after).Errors - ep(before).Errors
	var shed int64
	if after.Load != nil && before.Load != nil {
		shed = after.Load.ShedTotal() - before.Load.ShedTotal()
	}
	if reqs != int64(t.predictSent) || reqs-errs != int64(t.predict200) || shed != int64(t.predict503) {
		return fmt.Errorf("client sent %d /v1/predict (%d 200, %d 503); server counted %d (%d 200, %d shed)",
			t.predictSent, t.predict200, t.predict503, reqs, reqs-errs, shed)
	}
	return nil
}

// endToEnd is the end-to-end run: every end-to-end metric.
func (r *runner) endToEnd() (*result, error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	window, err := r.tr.schedule(r.stream(100), r.w.rate, r.seconds)
	if err != nil {
		return nil, err
	}
	durs, err := r.setUps(r.sz.Setups)
	if err != nil {
		return nil, err
	}
	defer r.setup.srv.stop()
	before, err := r.scrape()
	if err != nil {
		return nil, err
	}
	r.warm()

	// The read phases come first; the retrain rounds follow on the same
	// server.
	winOuts := r.phase(window)
	capRPS, probes, err := r.capacity()
	if err != nil {
		return nil, err
	}
	mape, cover, err := r.accuracy()
	if err != nil {
		return nil, err
	}
	// The peak of the read phases, before the rounds' fits.
	rss, err := r.setup.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rounds, failedRounds, err := r.retrainRounds()
	if err != nil {
		return nil, err
	}
	after, err := r.scrape()
	if err != nil {
		return nil, err
	}
	r.setup.srv.stop()
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no retrain round promoted")
	}

	r.oracle.verify(r.checked)
	all, win := account(r.checked), account(ptrs(winOuts))
	gen := generatorStats(winOuts)
	if err := r.validate(gen); err != nil {
		return nil, err
	}
	lat := latencies(winOuts)

	res := newResult()
	res.add("setup_s", medianDur(durs, sec), "s", len(durs))
	res.add("rss_mb", rss, "MiB", 1)
	res.add("point_p50_ms", lat[point].p50, "ms", lat[point].n)
	res.add("interval_p50_ms", lat[interval].p50, "ms", lat[interval].n)
	res.add("batch_p50_ms", lat[batch].p50, "ms", lat[batch].n)
	res.add("observe_p50_ms", lat[observe].p50, "ms", lat[observe].n)
	res.add("ok_ratio", float64(win.ok)/float64(win.attempted), "ratio", win.attempted)
	res.add("mape_pct", mape, "%", len(r.in.heldOut)*len(r.in.large))
	res.add("coverage_pct", cover, "%", len(r.in.heldOut)*len(r.in.large))
	res.add("retrain_s", medianDur(rounds, sec), "s", len(rounds))

	res.Attempted = win.attempted + r.sz.Rounds
	res.Failed = win.attempted - win.ok + failedRounds
	r.note("window: %d arrivals at %.0f/s over %s; generator late p50 %.3f p99 %.3f ms; %d queued, p99 %.3f ms; %d dropped",
		len(winOuts), r.w.rate, r.seconds, gen.lateP50, gen.lateP99, gen.queued, gen.queueP99, gen.dropped)
	r.noteTails(lat)
	r.note("capacity_rps %.1f 1/s from %d probes (reported, not gated: see README)", capRPS, len(probes))
	for i, d := range rounds {
		r.note("retrain round %d: %.3f s", i, d.Seconds())
	}
	for i, d := range durs {
		r.note("set-up %d: %.3f s", i, d.Seconds())
	}
	res.Correct = r.judge(all, before, after)
	return res, nil
}

// maxLate bounds how late the generator may wake for an arrival (p99)
// before its latencies measure the generator rather than the server. The
// generator shares the machine's CPUs with the server, so a retrain's
// fit delays its wake-ups by a few milliseconds; half the point latency
// limit is where a run stops measuring the server.
const maxLate = 25 * time.Millisecond

// noteTails reports each class's p99 with the samples behind it. The
// tails are reported, not gated: on a shared two-CPU machine a single
// stall of the host moves a ten-second window's p99 by more than any
// bound a regression check could use.
func (r *runner) noteTails(lat [nClasses]classStats) {
	for c, st := range lat {
		if tailSupported(st.n, 0.99) {
			r.note("%s p99 %.3f ms (n=%d, %.0f beyond)", classNames[c], st.p99, st.n, float64(st.n)*0.01)
		} else {
			r.note("%s p99 not reported: %d samples leave fewer than %d beyond it", classNames[c], st.n, tailMinBeyond)
		}
	}
}

// validate rejects a window the generator could not keep to schedule.
func (r *runner) validate(g genStats) error {
	if g.dropped > 0 || g.lateP99 > ms(maxLate) {
		return fmt.Errorf("invalid run: the generator fell behind the schedule (late p99 %.3f ms, %d dropped of %d); rerun on a quieter machine", g.lateP99, g.dropped, g.sent+g.dropped)
	}
	return nil
}

// judge reports whether every answer of the run was correct and whether
// the client's account of the requests after set-up agrees with the
// server's /metrics.
func (r *runner) judge(all tally, before, after *serving.Snapshot) bool {
	ok := true
	if all.wrong > 0 {
		r.note("WRONG: %d wrong answers; first: %v", all.wrong, all.firstWrong)
		ok = false
	}
	if err := crossCheck(before, after, all); err != nil {
		r.note("WRONG: %v", err)
		ok = false
	}
	return ok
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	samples map[string]int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{Metrics: map[string]metricValue{}, samples: map[string]int{}}
}

// add records a metric with the sample count behind it.
func (res *result) add(name string, v float64, unit string, n int) {
	res.Metrics[name] = metricValue{Value: v, Unit: unit}
	res.samples[name] = n
}

// print writes the human-readable report and then the result line. A
// metric without a value (no samples) is an error, not a line.
func (res *result) print(notes []string) error {
	var names []string
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value: nothing was measured", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(&b, "%-34s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, res.samples[n])
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = os.Stdout.WriteString(b.String())
	return err
}
