// Package uncertainty makes the two-level model's error bars honest and
// its serving loop self-correcting. The paper's premise — extrapolating
// from small-scale history to large scale — breaks the i.i.d. assumption
// by design, so a bare point estimate says nothing about how wrong it
// might be at p=1024. This package supplies the two missing pieces:
//
//   - Split-conformal calibration (this file): per-target-scale residual
//     quantiles computed on a held-out slice the model never trained on,
//     in log-runtime space so the resulting intervals are multiplicative
//     ("within a factor of 1.3"), with an optional per-cluster mode keyed
//     to the paper's k-means shape clusters. Under exchangeability of the
//     holdout and future configurations the intervals carry a
//     finite-sample coverage guarantee; under the drift this repository
//     exists to detect, coverage degrades measurably — which is exactly
//     the signal the monitor consumes.
//   - Drift monitoring (drift.go): deterministic rolling windows of
//     empirical interval coverage and MAPE per scale over observed
//     runtimes, with a latched breach signal that kicks retraining.
//
// The package is deliberately model-agnostic: callers hand it
// (predicted, actual) pairs, it hands back quantiles and verdicts. It
// never reads the wall clock and draws no randomness, so everything
// downstream stays byte-reproducible (enforced by repolint's
// nowallclock and randflow analyzers).
package uncertainty

import (
	"fmt"
	"math"
	"slices"
)

// logClamp guards the log transform: runtimes are positive by
// construction, but a degenerate prediction could be zero.
const logClamp = 1e-12

// Score is the conformal nonconformity score of one (predicted, actual)
// runtime pair: the absolute log-space residual |log actual − log pred|.
// A calibrated quantile q̂ of these scores turns a point prediction m
// into the multiplicative interval [m/exp(q̂), m·exp(q̂)].
func Score(predicted, actual float64) float64 {
	if predicted <= 0 {
		predicted = logClamp
	}
	if actual <= 0 {
		actual = logClamp
	}
	return math.Abs(math.Log(actual) - math.Log(predicted))
}

// ScaleCalib is one target scale's calibration: the sorted
// nonconformity scores of every holdout configuration measured there.
// Keeping the full sorted score list (holdout slices are tens of
// configurations, not millions) lets serve time answer any requested
// coverage level exactly instead of fixing levels at calibration time.
type ScaleCalib struct {
	Scale int `json:"scale"`
	// Scores are sorted ascending absolute log-residuals; see Score.
	Scores []float64 `json:"scores"`
}

// Calibration is a model's split-conformal calibration artifact. It is
// persisted inside the model file (core.ModelMeta) so it hot-swaps
// atomically with the generation it was computed for — an interval can
// never be served from one generation's model and another's residuals.
type Calibration struct {
	// Pooled holds one entry per target scale with at least one holdout
	// measurement, ascending by scale.
	Pooled []ScaleCalib `json:"pooled"`
	// PerCluster[c] is cluster c's per-scale calibration, aligned with
	// the model's cluster indices; nil for single-cluster models or when
	// the caller calibrated pooled-only. Clusters too small to calibrate
	// at a scale simply have no entry there and fall back to Pooled.
	PerCluster [][]ScaleCalib `json:"per_cluster,omitempty"`
}

// ConformalQuantile returns the split-conformal quantile of the sorted
// score list at the given coverage: the ⌈(n+1)·coverage⌉-th order
// statistic, whose interval has ≥ coverage probability under
// exchangeability. ok is false when n is too small for the requested
// coverage to be certified (⌈(n+1)·coverage⌉ > n) — the caller should
// fall back to a heuristic width rather than serve a bogus guarantee.
func ConformalQuantile(sorted []float64, coverage float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || coverage <= 0 || coverage >= 1 {
		return 0, false
	}
	k := int(math.Ceil(float64(n+1) * coverage))
	if k > n {
		return 0, false
	}
	return sorted[k-1], true
}

// Factor returns the multiplicative half-width exp(q̂) for a prediction
// at scale made for a configuration assigned to cluster: the interval is
// [m/Factor, m·Factor]. Cluster-specific scores are preferred when the
// cluster was calibrated with enough samples at that scale; otherwise
// the pooled scores answer. ok is false when neither side has enough
// holdout data for the requested coverage.
func (c *Calibration) Factor(cluster, scale int, coverage float64) (float64, bool) {
	if c == nil {
		return 0, false
	}
	if cluster >= 0 && cluster < len(c.PerCluster) {
		if sc := findScale(c.PerCluster[cluster], scale); sc != nil {
			if q, ok := ConformalQuantile(sc.Scores, coverage); ok {
				return math.Exp(q), true
			}
		}
	}
	if sc := findScale(c.Pooled, scale); sc != nil {
		if q, ok := ConformalQuantile(sc.Scores, coverage); ok {
			return math.Exp(q), true
		}
	}
	return 0, false
}

// Samples returns the pooled calibration sample count at the scale with
// the fewest samples (the binding constraint on certifiable coverage),
// and the total across scales. Zeros for an empty calibration.
func (c *Calibration) Samples() (min, total int) {
	if c == nil {
		return 0, 0
	}
	for i, sc := range c.Pooled {
		n := len(sc.Scores)
		total += n
		if i == 0 || n < min {
			min = n
		}
	}
	return min, total
}

// Validate checks structural invariants after deserialization: scales
// strictly ascending, scores sorted and non-negative, per-cluster scale
// sets a subset shape of the pooled ones.
func (c *Calibration) Validate() error {
	if c == nil {
		return nil
	}
	if len(c.Pooled) == 0 {
		return fmt.Errorf("uncertainty: calibration with no pooled scales")
	}
	if err := validateScales("pooled", c.Pooled); err != nil {
		return err
	}
	for ci, scs := range c.PerCluster {
		if err := validateScales(fmt.Sprintf("cluster %d", ci), scs); err != nil {
			return err
		}
	}
	return nil
}

func validateScales(where string, scs []ScaleCalib) error {
	prev := math.MinInt
	for _, sc := range scs {
		if sc.Scale <= prev {
			return fmt.Errorf("uncertainty: %s scales not strictly ascending at %d", where, sc.Scale)
		}
		prev = sc.Scale
		if len(sc.Scores) == 0 {
			return fmt.Errorf("uncertainty: %s scale %d has no scores", where, sc.Scale)
		}
		last := 0.0
		for _, s := range sc.Scores {
			if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("uncertainty: %s scale %d has invalid score %v", where, sc.Scale, s)
			}
			if s < last {
				return fmt.Errorf("uncertainty: %s scale %d scores not sorted", where, sc.Scale)
			}
			last = s
		}
	}
	return nil
}

// findScale returns the entry for scale, or nil. Linear scan: scale
// lists are a handful of entries.
func findScale(scs []ScaleCalib, scale int) *ScaleCalib {
	for i := range scs {
		if scs[i].Scale == scale {
			return &scs[i]
		}
	}
	return nil
}

// Calibrator accumulates (predicted, actual) holdout pairs and builds a
// Calibration. Not safe for concurrent use; calibration is a
// single-threaded pipeline stage.
type Calibrator struct {
	scales  []int
	pooled  [][]float64   // per scale index
	cluster [][][]float64 // [cluster][scale index]; nil when clusters <= 1
}

// NewCalibrator prepares a calibrator for the given target scales and
// model cluster count. clusters <= 1 disables the per-cluster mode.
func NewCalibrator(scales []int, clusters int) *Calibrator {
	c := &Calibrator{
		scales: slices.Clone(scales),
		pooled: make([][]float64, len(scales)),
	}
	if clusters > 1 {
		c.cluster = make([][][]float64, clusters)
		for i := range c.cluster {
			c.cluster[i] = make([][]float64, len(scales))
		}
	}
	return c
}

// Add records one holdout measurement: the model (assigning the
// configuration to cluster) predicted `predicted` at scales[scaleIdx],
// reality measured `actual`.
func (c *Calibrator) Add(cluster, scaleIdx int, predicted, actual float64) {
	s := Score(predicted, actual)
	c.pooled[scaleIdx] = append(c.pooled[scaleIdx], s)
	if c.cluster != nil && cluster >= 0 && cluster < len(c.cluster) {
		c.cluster[cluster][scaleIdx] = append(c.cluster[cluster][scaleIdx], s)
	}
}

// Finish sorts every score list and assembles the Calibration. It
// returns nil when no sample was added at any scale (an uncalibrated
// model serves ensemble-spread fallbacks instead). The result is a pure
// function of the Add sequence — no clock, no randomness — so reruns
// over the same holdout are byte-identical.
func (c *Calibrator) Finish() *Calibration {
	out := &Calibration{}
	for i, scores := range c.pooled {
		if len(scores) == 0 {
			continue
		}
		slices.Sort(scores)
		out.Pooled = append(out.Pooled, ScaleCalib{Scale: c.scales[i], Scores: scores})
	}
	if len(out.Pooled) == 0 {
		return nil
	}
	for _, per := range c.cluster {
		var scs []ScaleCalib
		for i, scores := range per {
			if len(scores) == 0 {
				continue
			}
			slices.Sort(scores)
			scs = append(scs, ScaleCalib{Scale: c.scales[i], Scores: scores})
		}
		out.PerCluster = append(out.PerCluster, scs)
	}
	return out
}
