package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hpcsim"
	"repro/internal/rng"
	"repro/internal/serving"
)

// appName is the simulated application every workload predicts. Its
// parameter grid (17×17×17×13 = 63,869 configurations) is the largest of
// the hpcsim skeletons, which predict-miss needs: no configuration may
// repeat within a run.
const appName = "smg2000"

// coverage is the interval level every interval request asks for; the
// pipeline calibrates it conformally.
const coverage = 0.9

// sizes fixes how much data and traffic one run generates. full is the
// benchmark; smoke is a tiny configuration for the benchmark's own tests.
type sizes struct {
	Configs   int     // training configurations, each run at every small scale
	Anchors   int     // of those, also run at every large scale
	HeldOut   int     // held-out configurations scored for mape_pct and coverage_pct
	Rounds    int     // retrain rounds per run
	RoundNew  int     // new configurations appended per round
	RoundAnch int     // of those, also run at every large scale
	Setups    int     // timed set-ups per run; setup_s is their median
	ProbeSec  float64 // length of one capacity probe, seconds
	Probes    int     // capacity probes per run
}

var fullSizes = sizes{
	Configs: 500, Anchors: 150, HeldOut: 200,
	Rounds: 4, RoundNew: 12, RoundAnch: 4, Setups: 3, ProbeSec: 1, Probes: 6,
}

var smokeSizes = sizes{
	Configs: 120, Anchors: 100, HeldOut: 20,
	Rounds: 2, RoundNew: 6, RoundAnch: 3, Setups: 1, ProbeSec: 0.3, Probes: 2,
}

// roundRecords is how many store records one retrain round appends.
func (s sizes) roundRecords() int {
	c := core.DefaultConfig()
	return s.RoundNew*len(c.SmallScales) + s.RoundAnch*len(c.LargeScales)
}

// inputs is everything a run derives from its seed. The programs under
// test see only the history CSV, the appended store records and the
// request bodies built from these.
type inputs struct {
	seed    uint64
	sz      sizes
	app     hpcsim.App
	names   []string
	small   []int
	large   []int
	engine  *hpcsim.Engine // history, held-out truth, observations
	history *dataset.Table
	csv     []byte

	heldOut  [][]float64
	heldTrue [][]float64 // runtime at every large scale, default machine

	// pool holds configurations in neither the history nor the held-out
	// set, in seeded random order: working sets first, then retrain
	// rounds, then the fresh configurations predict-miss consumes.
	pool      [][]float64
	freshFrom int
}

// workingSetSize is the pool prefix reserved for working sets.
const workingSetSize = 1024

func newInputs(seed uint64, sz sizes) (*inputs, error) {
	app := hpcsim.Apps()[appName]
	cfg := core.DefaultConfig()
	in := &inputs{
		seed: seed, sz: sz, app: app, names: app.Space().Names(),
		small: cfg.SmallScales, large: cfg.LargeScales,
		engine: hpcsim.NewEngine(hpcsim.DefaultMachine(), seed),
	}
	grid := spaceGrid(app.Space())
	order := rng.NewStream(seed, 1).Perm(len(grid))
	all := make([][]float64, len(grid))
	for i, j := range order {
		all[i] = grid[j]
	}
	train := all[:sz.Configs]
	in.heldOut = all[sz.Configs : sz.Configs+sz.HeldOut]
	in.pool = all[sz.Configs+sz.HeldOut:]
	in.freshFrom = workingSetSize + sz.Rounds*sz.RoundNew

	hist, err := in.engine.GenerateHistory(app, hpcsim.HistorySpec{Configs: train, Scales: in.small})
	if err != nil {
		return nil, err
	}
	anch, err := in.engine.GenerateHistory(app, hpcsim.HistorySpec{Configs: train[:sz.Anchors], Scales: in.large})
	if err != nil {
		return nil, err
	}
	hist.Merge(anch)
	in.history = hist
	var buf bytes.Buffer
	if err := hist.WriteCSV(&buf); err != nil {
		return nil, err
	}
	in.csv = buf.Bytes()

	in.heldTrue = make([][]float64, len(in.heldOut))
	for i, c := range in.heldOut {
		row := make([]float64, len(in.large))
		for j, s := range in.large {
			if row[j], err = in.engine.Run(app, c, s, 0); err != nil {
				return nil, err
			}
		}
		in.heldTrue[i] = row
	}
	return in, nil
}

// spaceGrid enumerates every configuration of a discrete space in
// lexicographic order.
func spaceGrid(sp dataset.Space) [][]float64 {
	out := [][]float64{{}}
	for _, p := range sp.Params {
		var next [][]float64
		for _, prefix := range out {
			for _, v := range p.Values {
				next = append(next, append(append([]float64(nil), prefix...), v))
			}
		}
		out = next
	}
	return out
}

// roundRecords returns retrain round k's new history: RoundNew fresh
// configurations at every small scale, the first RoundAnch of them also at
// every large scale.
func (in *inputs) roundRecords(k int) ([]dataset.Run, error) {
	lo := workingSetSize + k*in.sz.RoundNew
	cfgs := in.pool[lo : lo+in.sz.RoundNew]
	var runs []dataset.Run
	add := func(c []float64, scales []int) error {
		for _, s := range scales {
			rt, err := in.engine.Run(in.app, c, s, 0)
			if err != nil {
				return err
			}
			runs = append(runs, dataset.Run{Params: c, Scale: s, Runtime: rt})
		}
		return nil
	}
	for i, c := range cfgs {
		if err := add(c, in.small); err != nil {
			return nil, err
		}
		if i < in.sz.RoundAnch {
			if err := add(c, in.large); err != nil {
				return nil, err
			}
		}
	}
	return runs, nil
}

// class is a request class of the traffic mix.
type class int

const (
	point class = iota
	interval
	batch
	observe
	nClasses
)

var classNames = [nClasses]string{"point", "interval", "batch", "observe"}

// request is one scheduled arrival.
type request struct {
	class   class
	due     time.Duration // offset from the phase start
	id      string        // X-Request-Id; its prefix names the class
	configs [][]float64   // predict classes
	// interval marks a predict request that asks for intervals at
	// coverage; observations are always scored against one.
	interval bool
	obs      serving.Observation
	body     []byte
}

func (r *request) path() string {
	if r.class == observe {
		return "/v1/observe"
	}
	return "/v1/predict"
}

// traffic draws a workload's requests: which configurations each class
// asks about and which observations it reports.
type traffic struct {
	in    *inputs
	w     *workload
	fresh int // next pool index predict-miss takes
	obsN  int // observation counter, varies measurement noise
	n     int // requests drawn, names request IDs
}

func newTraffic(in *inputs, w *workload) *traffic {
	return &traffic{in: in, w: w, fresh: in.freshFrom}
}

// configs returns n configurations for one request: fresh ones on a
// workload without a working set, otherwise distinct draws from it.
func (t *traffic) configs(r *rng.Source, n int) [][]float64 {
	if t.w.set == 0 {
		if t.fresh+n > len(t.in.pool) {
			// Only capacity probes on a much faster machine get here. A
			// configuration then repeats after some 60,000 others have
			// passed through the 4096-entry cache, so it still misses.
			t.fresh = t.in.freshFrom
		}
		out := t.in.pool[t.fresh : t.fresh+n]
		t.fresh += n
		return out
	}
	set := t.in.pool[:t.w.set]
	if n == 1 {
		return [][]float64{set[r.Intn(len(set))]}
	}
	idx := r.Sample(len(set), n)
	out := make([][]float64, n)
	for i, j := range idx {
		out[i] = set[j]
	}
	return out
}

// schedule draws an open-loop phase of rate×dur arrivals, evenly spaced
// at the offered rate from a random phase, with each class's share of
// them fixed by the workload's mix and the class order shuffled. Even
// spacing keeps the generator's own bursts out of the latencies: with
// Poisson arrivals, their clustering behind a batch on the two
// connections made every tail measure the schedule rather than the
// server. Fixing the counts fixes the sample size behind every
// percentile. The same stream state gives byte-identical requests.
func (t *traffic) schedule(r *rng.Source, rate float64, dur time.Duration) ([]request, error) {
	n := int(math.Round(rate * dur.Seconds()))
	phase := r.Float64()
	deck := make([]int, 0, n)
	for c := class(0); c < nClasses; c++ {
		k := int(math.Round(t.w.mix[c] * float64(n)))
		if c == nClasses-1 || len(deck)+k > n {
			k = n - len(deck)
		}
		for j := 0; j < k; j++ {
			deck = append(deck, int(c))
		}
	}
	r.Shuffle(deck)
	out := make([]request, n)
	for i := range out {
		req, err := t.build(r, class(deck[i]))
		if err != nil {
			return nil, err
		}
		req.due = time.Duration((float64(i) + phase) / rate * float64(time.Second))
		out[i] = req
	}
	return out, nil
}

func (t *traffic) build(r *rng.Source, c class) (request, error) {
	t.n++
	req := request{class: c, id: fmt.Sprintf("%s-%d", classNames[c][:1], t.n)}
	var body any
	switch c {
	case point, interval, batch:
		n := 1
		if c == batch {
			n = t.w.batch
		}
		cfgs := t.configs(r, n)
		req.configs = cfgs
		pr := serving.PredictRequest{Model: appName}
		if n == 1 {
			pr.Params = cfgs[0]
		} else {
			pr.Configs = cfgs
		}
		if c == interval {
			pr.Interval = coverage
			req.interval = true
		}
		body = pr
	case observe:
		i := r.Intn(len(t.in.heldOut))
		j := r.Intn(len(t.in.large))
		t.obsN++
		rt, err := t.in.engine.Run(t.in.app, t.in.heldOut[i], t.in.large[j], t.obsN)
		if err != nil {
			return req, err
		}
		req.obs = serving.Observation{Params: t.in.heldOut[i], Scale: t.in.large[j], Runtime: rt}
		body = serving.ObserveRequest{Model: appName, Params: req.obs.Params, Scale: req.obs.Scale, Runtime: req.obs.Runtime}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return req, err
	}
	req.body = b
	return req, nil
}

// warmup returns one request per (working-set configuration, predict
// class), so a cache-hit workload's window starts with a full cache.
func (t *traffic) warmup() []request {
	if t.w.set == 0 {
		return nil
	}
	var out []request
	for _, c := range t.in.pool[:t.w.set] {
		for _, cl := range []class{point, interval} {
			pr := serving.PredictRequest{Model: appName, Params: c}
			if cl == interval {
				pr.Interval = coverage
			}
			b, _ := json.Marshal(pr) // a PredictRequest always encodes
			t.n++
			out = append(out, request{class: cl, id: fmt.Sprintf("w-%d", t.n), configs: [][]float64{c}, interval: cl == interval, body: b})
		}
	}
	return out
}

// heldOutRequest asks for every held-out configuration's interval at
// every large scale in one batch: the accuracy probe.
func (in *inputs) heldOutRequest() request {
	b, _ := json.Marshal(serving.PredictRequest{Model: appName, Configs: in.heldOut, Interval: coverage}) // always encodes
	return request{class: batch, id: "heldout", configs: in.heldOut, interval: true, body: b}
}

// accuracy scores served intervals against the held-out truth: MAPE of
// the midpoints and the share of true runtimes inside the 0.9 bands,
// both in percent.
func (in *inputs) accuracy(res []serving.ConfigResult) (mape, cover float64, err error) {
	if len(res) != len(in.heldOut) {
		return 0, 0, fmt.Errorf("held-out answer has %d results, want %d", len(res), len(in.heldOut))
	}
	var sum float64
	var n, hit int
	for i, r := range res {
		if len(r.Intervals) != len(in.large) || len(r.Runtimes) != len(in.large) {
			return 0, 0, fmt.Errorf("held-out result %d has %d intervals", i, len(r.Intervals))
		}
		for j, actual := range in.heldTrue[i] {
			sum += math.Abs(r.Runtimes[j]-actual) / actual
			n++
			if iv := r.Intervals[j]; iv.Lo <= actual && actual <= iv.Hi {
				hit++
			}
			if r.Intervals[j].Source != core.IntervalConformal {
				return 0, 0, fmt.Errorf("held-out interval %d/%d came from %q, not the conformal path", i, j, r.Intervals[j].Source)
			}
		}
	}
	return 100 * sum / float64(n), 100 * float64(hit) / float64(n), nil
}
