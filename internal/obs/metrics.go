// Package obs is the unified observability layer: a central metrics
// registry with dual JSON/Prometheus exposition, bounded request
// tracing with a /debug/traces surface, counter-based request IDs,
// structured-logging constructors, and the pprof ops mux.
//
// Core packages stay clock-free: every duration handled here is either
// measured through the sanctioned boundary in clock.go (the only file
// outside internal/serving and cmd/ allowed to read the wall clock,
// pinned by the nowallclock allow-list in internal/lint) or passed in
// by a caller that is itself inside the allowed boundary.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension. Series under a family are keyed by
// their full, sorted label set.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label at a call site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing atomic counter. The zero value
// is unusable; obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0; negative deltas are
// a programming error and are ignored to keep the series monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic float64 gauge.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket duration histogram updated with atomics;
// Observe is zero-alloc and lock-free. Bucket upper bounds are
// inclusive (an observation equal to a bound lands in that bucket),
// with an implicit +Inf overflow bucket.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	sumNS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}

// Count returns the number of observations so far: the sum of the
// buckets, so it always agrees with a bucket pass.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// BucketBound is a histogram upper bound in milliseconds that marshals
// the +Inf overflow bucket as the explicit string "+Inf" instead of an
// ambiguous numeric sentinel (a literal 0 would be indistinguishable
// from a real 0ms bound).
type BucketBound float64

// IsInf reports whether the bound is the +Inf overflow bucket.
func (b BucketBound) IsInf() bool { return math.IsInf(float64(b), 1) }

// MarshalJSON emits finite bounds as numbers and +Inf as "+Inf".
func (b BucketBound) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(b), 1) {
		return []byte(`"+Inf"`), nil
	}
	return json.Marshal(float64(b))
}

// UnmarshalJSON accepts a number or the string "+Inf".
func (b *BucketBound) UnmarshalJSON(data []byte) error {
	if string(data) == `"+Inf"` {
		*b = BucketBound(math.Inf(1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("bucket bound: %w", err)
	}
	*b = BucketBound(f)
	return nil
}

// HistogramBucket is one cumulative bucket in a JSON snapshot.
type HistogramBucket struct {
	LeMS  BucketBound `json:"le_ms"` // upper bound in ms; "+Inf" for the overflow bucket
	Count int64       `json:"count"` // cumulative count of observations <= LeMS
}

// HistogramSnapshot is the JSON view of a histogram.
type HistogramSnapshot struct {
	Count      int64             `json:"count"`
	SumSeconds float64           `json:"sum_seconds"`
	MeanMS     float64           `json:"mean_ms"`
	Buckets    []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state. Buckets are read
// individually, so a snapshot taken during concurrent Observe calls is
// a consistent-enough approximation (each bucket is exact at some
// moment; the sum may differ by in-flight updates). Count is the
// cumulative +Inf bucket of the same pass, so the two always agree.
func (h *Histogram) Snapshot() HistogramSnapshot {
	sumNS := h.sumNS.Load()
	s := HistogramSnapshot{
		SumSeconds: float64(sumNS) / float64(time.Second),
		Buckets:    make([]HistogramBucket, 0, len(h.counts)),
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		b := HistogramBucket{Count: cum, LeMS: BucketBound(math.Inf(1))}
		if i < len(h.bounds) {
			b.LeMS = BucketBound(float64(h.bounds[i]) / float64(time.Millisecond))
		}
		s.Buckets = append(s.Buckets, b)
	}
	s.Count = cum
	if s.Count > 0 {
		s.MeanMS = float64(sumNS) / float64(time.Millisecond) / float64(s.Count)
	}
	return s
}

// Sub returns the delta snapshot s - prev: bucket-wise cumulative
// differences with Count/Sum/Mean recomputed. Both snapshots must come
// from the same histogram shape; mismatched bucket lists return s
// unchanged (the caller is diffing across a restart or a config
// change, where a delta would be meaningless).
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(s.Buckets) != len(prev.Buckets) {
		return s
	}
	out := HistogramSnapshot{
		Count:      s.Count - prev.Count,
		SumSeconds: s.SumSeconds - prev.SumSeconds,
		Buckets:    make([]HistogramBucket, len(s.Buckets)),
	}
	if out.Count > 0 {
		out.MeanMS = out.SumSeconds * 1e3 / float64(out.Count)
	}
	for i := range s.Buckets {
		out.Buckets[i] = HistogramBucket{
			LeMS:  s.Buckets[i].LeMS,
			Count: s.Buckets[i].Count - prev.Buckets[i].Count,
		}
	}
	return out
}

// series is one labeled instance under a family.
type series struct {
	labels []Label
	sig    string // canonical sorted label signature, e.g. `endpoint="predict"`
	c      *Counter
	g      *Gauge
	fn     func() float64 // value function (CounterFunc/GaugeFunc); overrides c/g
	h      *Histogram
}

// family is one named metric with its help text, kind, and series.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []time.Duration // histogram families only
	series map[string]*series
}

// Registry is the central metrics registry. Registration takes a lock;
// the returned Counter/Gauge/Histogram handles are lock-free atomics,
// so the request hot path never touches the registry itself.
// Registration is idempotent: asking for an existing (name, labels)
// pair returns the same handle, and mismatched kinds panic (metric
// names are program constants, so a clash is a programming error).
type Registry struct {
	ns       string
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates a registry; namespace (may be empty) prefixes
// every metric name in the Prometheus exposition as "<namespace>_".
func NewRegistry(namespace string) *Registry {
	if namespace != "" && !validMetricName(namespace) {
		panic("obs: invalid namespace " + strconv.Quote(namespace))
	}
	return &Registry{ns: namespace, families: make(map[string]*family)}
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, nil, labels)
	return s.c
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time, for counts another package must keep itself (the
// admission controller's, which move under its own mutex).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindCounter, fn, labels)
}

// Gauge returns the gauge registered under name with the given labels,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, nil, labels)
	return s.g
}

// GaugeFunc registers a gauge sampled from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindGauge, fn, labels)
}

// Histogram returns the histogram registered under name with the given
// bucket bounds and labels, creating it on first use. Bounds must be
// strictly increasing; the +Inf overflow bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + " bounds not strictly increasing")
		}
	}
	s := r.register(name, help, kindHistogram, bounds, labels)
	return s.h
}

func (r *Registry) register(name, help string, kind metricKind, bounds []time.Duration, labels []Label) *series {
	fam, sig := r.lookup(name, help, kind, bounds, labels)
	if s, ok := fam.series[sig]; ok {
		return s
	}
	s := &series{labels: sortedLabels(labels), sig: sig}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = &Histogram{bounds: fam.bounds, counts: make([]atomic.Int64, len(fam.bounds)+1)}
	}
	fam.series[sig] = s
	return s
}

func (r *Registry) registerFunc(name, help string, kind metricKind, fn func() float64, labels []Label) {
	if fn == nil {
		panic("obs: nil value function for metric " + name)
	}
	fam, sig := r.lookup(name, help, kind, nil, labels)
	if _, ok := fam.series[sig]; ok {
		return // keep the first registration
	}
	fam.series[sig] = &series{labels: sortedLabels(labels), sig: sig, fn: fn}
}

// lookup finds or creates the family and returns it with the canonical
// label signature. Caller holds no lock; lookup takes r.mu and returns
// with it released — series maps are only mutated under that same lock
// via register/registerFunc, which re-enter lookup first.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []time.Duration, labels []Label) (*family, string) {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validLabelName(l.Key) {
			panic("obs: invalid label name " + strconv.Quote(l.Key) + " on metric " + name)
		}
	}
	full := name
	if r.ns != "" {
		full = r.ns + "_" + name
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[full]
	if !ok {
		fam = &family{name: full, help: help, kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[full] = fam
	} else {
		if fam.kind != kind {
			panic("obs: metric " + full + " re-registered as " + kind.String() + ", was " + fam.kind.String())
		}
		if kind == kindHistogram && !equalBounds(fam.bounds, bounds) {
			panic("obs: histogram " + full + " re-registered with different bounds")
		}
	}
	return fam, labelSignature(labels)
}

func equalBounds(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// labelSignature renders the canonical `k1="v1",k2="v2"` form used both
// as the series map key and in the exposition output.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortedLabels(labels)
	var b []byte
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = appendLabelValue(b, l.Value)
	}
	return string(b)
}

// appendLabelValue appends a quoted, escaped Prometheus label value.
func appendLabelValue(b []byte, v string) []byte {
	b = append(b, '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			continue
		}
		if i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return false
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			continue
		}
		if i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return false
	}
	return true
}

// WritePrometheus renders the registry in Prometheus text exposition
// format 0.0.4. Output is byte-deterministic for a fixed registry
// state: families sort by name, series by label signature. Histograms
// emit cumulative _bucket series with le in seconds (ending at
// le="+Inf"), plus _sum (seconds) and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var buf []byte
	for _, fam := range fams {
		sigs := make([]string, 0, len(fam.series))
		for sig := range fam.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)

		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, fam.name...)
		buf = append(buf, ' ')
		buf = appendHelp(buf, fam.help)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, fam.name...)
		buf = append(buf, ' ')
		buf = append(buf, fam.kind.String()...)
		buf = append(buf, '\n')
		for _, sig := range sigs {
			s := fam.series[sig]
			switch fam.kind {
			case kindCounter, kindGauge:
				buf = append(buf, fam.name...)
				buf = appendSig(buf, sig)
				buf = append(buf, ' ')
				buf = appendValue(buf, s.value())
				buf = append(buf, '\n')
			case kindHistogram:
				buf = s.h.appendProm(buf, fam.name, sig)
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func (s *series) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.c != nil:
		return float64(s.c.Load())
	default:
		return s.g.Load()
	}
}

// appendProm renders one histogram series: cumulative buckets with le
// in seconds, then _sum and _count. _count is the +Inf bucket's
// cumulative count from the same pass, never a separate read, so a
// concurrent Observe cannot make the two disagree.
func (h *Histogram) appendProm(buf []byte, name, sig string) []byte {
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		buf = append(buf, name...)
		buf = append(buf, "_bucket"...)
		buf = append(buf, '{')
		if sig != "" {
			buf = append(buf, sig...)
			buf = append(buf, ',')
		}
		buf = append(buf, "le="...)
		if i < len(h.bounds) {
			le := strconv.FormatFloat(h.bounds[i].Seconds(), 'g', -1, 64)
			buf = appendLabelValue(buf, le)
		} else {
			buf = appendLabelValue(buf, "+Inf")
		}
		buf = append(buf, "} "...)
		buf = strconv.AppendInt(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	buf = appendSig(buf, sig)
	buf = append(buf, ' ')
	buf = appendValue(buf, float64(h.sumNS.Load())/float64(time.Second))
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	buf = appendSig(buf, sig)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, cum, 10)
	return append(buf, '\n')
}

func appendSig(buf []byte, sig string) []byte {
	if sig == "" {
		return buf
	}
	buf = append(buf, '{')
	buf = append(buf, sig...)
	return append(buf, '}')
}

func appendValue(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendHelp escapes help text for a HELP line.
func appendHelp(buf []byte, help string) []byte {
	for i := 0; i < len(help); i++ {
		switch c := help[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}
