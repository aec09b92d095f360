package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/linmod"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/treec"
)

// TwoLevelModel is a fitted two-level performance model.
type TwoLevelModel struct {
	Cfg        Config
	ParamNames []string

	// Meta carries training provenance (pipeline generation, training-set
	// hash); see ModelMeta. Zero for models trained outside the pipeline.
	Meta ModelMeta `json:"meta"`

	// Interp holds one interpolation forest per small scale, aligned with
	// Cfg.SmallScales. Prediction runs the compiled form; a loaded model
	// rebuilds these pointer trees from the file's compiled tables
	// (breadth-first, and without the per-node training statistics), so
	// they never serialize themselves.
	Interp []*forest.Forest `json:"-"`

	// Centroids are the k-means centroids over normalized predicted
	// small-scale curve shapes (k × len(SmallScales)); nil when the model
	// has a single cluster.
	Centroids *mat.Dense

	// ClusterModels holds one extrapolation model per cluster.
	ClusterModels []ClusterModel

	// TrainConfigs is the number of configurations with complete
	// small-scale curves; Anchors the subset that additionally had
	// complete large-scale curves. Informational.
	TrainConfigs int
	Anchors      int

	// compiled is the flattened treec form of Interp, aligned with it.
	// Fit and Read build it before returning the model, so every
	// prediction runs the compiled kernels; Write stores these tables.
	compiled []*treec.Forest
}

// ClusterModel is one cluster's extrapolation model. Exactly one backend's
// fields are populated, matching Cfg.Mode after resolution.
type ClusterModel struct {
	// Anchored backend: multitask lasso (tasks = large scales); under
	// the single-task ablation each column is its own lasso.
	Multi *linmod.MultiTaskModel `json:"multi,omitempty"`

	// Basis backend: indices of the selected scalability terms (into
	// Cfg.Basis); nil Support with Cfg.SingleTask means per-curve
	// selection at prediction time.
	Support []int `json:"support,omitempty"`

	Lambda float64 `json:"lambda"` // regularization actually used
	Size   int     `json:"size"`   // members at fit time
}

// trainData is the grouped view of the history Fit consumes.
type trainData struct {
	params [][]float64 // all usable configs
	small  [][]float64 // measured small-scale curves, aligned with params
	// anchorIdx lists indices into params of anchor configs; large is
	// aligned with anchorIdx.
	anchorIdx []int
	large     [][]float64
}

// Fit trains a two-level model from an execution-history table. Every
// usable training configuration must have runs at every small scale;
// configurations whose history additionally covers every large scale are
// anchors (required by ModeAnchored, ignored by ModeBasis). Repeated
// measurements are averaged.
func Fit(r *rng.Source, table *dataset.Table, cfg Config) (*TwoLevelModel, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if table.Len() == 0 {
		return nil, fmt.Errorf("core: empty training table")
	}

	td := trainData{}
	for _, c := range table.GroupByConfig() {
		curve, ok := c.Curve(cfg.SmallScales)
		if !ok {
			continue
		}
		td.params = append(td.params, c.Params)
		td.small = append(td.small, curve)
		if large, ok := c.Curve(cfg.LargeScales); ok {
			td.anchorIdx = append(td.anchorIdx, len(td.params)-1)
			td.large = append(td.large, large)
		}
	}
	if len(td.params) < 3 {
		return nil, fmt.Errorf("core: only %d configurations cover all small scales %v (need >= 3)",
			len(td.params), cfg.SmallScales)
	}

	// resolve the backend
	minAnchored := cfg.CVFolds
	if minAnchored < 4 {
		minAnchored = 4
	}
	switch cfg.Mode {
	case ModeAuto:
		if len(td.anchorIdx) >= cfg.MinAnchors {
			cfg.Mode = ModeAnchored
		} else {
			cfg.Mode = ModeBasis
		}
	case ModeAnchored:
		if len(td.anchorIdx) < minAnchored {
			return nil, fmt.Errorf("core: ModeAnchored needs >= %d anchor configurations with runs at all large scales %v, found %d",
				minAnchored, cfg.LargeScales, len(td.anchorIdx))
		}
	}

	m := &TwoLevelModel{
		Cfg:          cfg,
		ParamNames:   append([]string(nil), table.ParamNames...),
		TrainConfigs: len(td.params),
		Anchors:      len(td.anchorIdx),
	}

	// ---- level 1: per-scale interpolation forests ----
	if err := m.fitInterp(r, table); err != nil {
		return nil, err
	}
	m.compile()

	// ---- level 2 ----
	if cfg.Mode == ModeAnchored {
		err = m.fitAnchored(r, td)
	} else {
		err = m.fitBasis(r, td)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// interpFitParallel gates the goroutine fan-out in fitInterp. It exists
// for TestFitInterpParallelByteIdentical, which flips it to prove the
// fan-out changes nothing about the fitted artifact.
var interpFitParallel = true

// fitInterp fits one interpolation forest per small scale, in parallel
// across scales. The RNG streams are split from r up front, one per
// scale in scale order — exactly the draw sequence of a sequential
// `r.Split()` per iteration, and forest.Fit never touches the parent r
// — so scheduling order cannot reach the fitted trees and the resulting
// model artifact is byte-identical to a sequential fit.
func (m *TwoLevelModel) fitInterp(r *rng.Source, table *dataset.Table) error {
	scales := m.Cfg.SmallScales
	m.Interp = make([]*forest.Forest, len(scales))
	srcs := make([]*rng.Source, len(scales))
	for i := range srcs {
		srcs[i] = r.Split()
	}
	errs := make([]error, len(scales))
	fitOne := func(si, s int) {
		sub := table.FilterScale(s)
		if sub.Len() == 0 {
			errs[si] = fmt.Errorf("core: no runs at small scale %d", s)
			return
		}
		x, y := sub.XY()
		if m.Cfg.LogInterpolation {
			y = logVec(y)
		}
		m.Interp[si] = forest.Fit(x, y, m.Cfg.Forest, srcs[si])
	}
	if interpFitParallel && len(scales) > 1 {
		var wg sync.WaitGroup
		for si, s := range scales {
			wg.Add(1)
			go func(si, s int) {
				defer wg.Done()
				fitOne(si, s)
			}(si, s)
		}
		wg.Wait()
	} else {
		for si, s := range scales {
			fitOne(si, s)
		}
	}
	// Report the first failing scale in scale order, independent of
	// goroutine scheduling.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// compile flattens every interpolation forest into the treec layout.
// Predictions are bit-identical to the pointer forests.
func (m *TwoLevelModel) compile() {
	m.compiled = make([]*treec.Forest, len(m.Interp))
	for i, f := range m.Interp {
		m.compiled[i] = treec.CompileForest(f)
	}
}

// Compile is kept for source compatibility.
//
// Deprecated: Fit and Read compile; this does nothing.
func (m *TwoLevelModel) Compile() {}

// extrapCurves returns the extrapolation-level feature curves of the
// training configs idx, one row each: the interpolation level's
// predictions (deployment-consistent) or the measured curves under the
// ablation.
func (m *TwoLevelModel) extrapCurves(td trainData, idx []int) *mat.Dense {
	if m.Cfg.FeaturesFromMeasurements {
		out := mat.NewDense(len(idx), len(m.Cfg.SmallScales))
		for a, i := range idx {
			copy(out.Row(a), td.small[i])
		}
		return out
	}
	rows := make([][]float64, len(idx))
	for a, i := range idx {
		rows[a] = td.params[i]
	}
	return m.predictSmallBatch(rows)
}

// clusterCurves runs shape k-means over the given curves, merges tiny
// clusters, stores centroids, and returns per-curve labels and the
// cluster count.
func (m *TwoLevelModel) clusterCurves(r *rng.Source, curves *mat.Dense) ([]int, int) {
	labels := make([]int, curves.Rows)
	k := m.Cfg.Clusters
	if k > curves.Rows/m.Cfg.MinClusterSize {
		k = curves.Rows / m.Cfg.MinClusterSize
	}
	if k < 1 {
		k = 1
	}
	if k == 1 {
		return labels, 1
	}
	shapes := cluster.NormalizeCurves(clampPositive(curves))
	res := cluster.KMeans(r.Split(), shapes, k, cluster.Options{})
	copy(labels, res.Labels)
	labels, res = mergeSmallClusters(labels, res, shapes, m.Cfg.MinClusterSize)
	m.Centroids = res.Centroids
	return labels, res.K()
}

// mergeSmallClusters reassigns members of clusters smaller than minSize to
// their nearest surviving centroid and compacts the result.
func mergeSmallClusters(labels []int, res *cluster.Result, shapes *mat.Dense, minSize int) ([]int, *cluster.Result) {
	sizes := make([]int, res.K())
	for _, l := range labels {
		sizes[l]++
	}
	keep := []int{}
	for c, n := range sizes {
		if n >= minSize {
			keep = append(keep, c)
		}
	}
	if len(keep) == res.K() {
		return labels, res
	}
	if len(keep) == 0 {
		// everything is tiny: collapse to a single cluster at the mean
		cent := mat.NewDense(1, shapes.Cols)
		for i := 0; i < shapes.Rows; i++ {
			mat.Axpy(1, shapes.Row(i), cent.Row(0))
		}
		mat.Scale(1/float64(shapes.Rows), cent.Row(0))
		for i := range labels {
			labels[i] = 0
		}
		return labels, &cluster.Result{Centroids: cent, Labels: labels}
	}
	cent := mat.NewDense(len(keep), shapes.Cols)
	remap := map[int]int{}
	for newID, oldID := range keep {
		copy(cent.Row(newID), res.Centroids.Row(oldID))
		remap[oldID] = newID
	}
	merged := &cluster.Result{Centroids: cent, Labels: labels}
	for i := range labels {
		if newID, ok := remap[labels[i]]; ok {
			labels[i] = newID
		} else {
			labels[i] = merged.Assign(shapes.Row(i))
		}
	}
	return labels, merged
}

// clampPositive returns a copy of x with non-positive entries clamped,
// so the log-shape normalization is defined.
func clampPositive(x *mat.Dense) *mat.Dense {
	out := x.Clone()
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 1e-12
		}
	}
	return out
}

// logVec returns the elementwise natural log of y, clamping non-positive
// values (runtimes are positive by construction).
func logVec(y []float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		if v <= 0 {
			v = 1e-12
		}
		out[i] = math.Log(v)
	}
	return out
}

// gatherRows copies the selected rows of x into a new matrix.
func gatherRows(x *mat.Dense, idx []int) *mat.Dense {
	out := mat.NewDense(len(idx), x.Cols)
	for i, j := range idx {
		copy(out.Row(i), x.Row(j))
	}
	return out
}

// ---- prediction ----

// curveBufSize is the stack-buffer size for per-prediction scale curves.
// Scale lists in every experiment and deployment are a handful of
// entries; curves at most this long never touch the heap on the serving
// hot path.
const curveBufSize = 16

// PredictSmall returns the interpolation level's runtime predictions at
// every small scale for a configuration.
func (m *TwoLevelModel) PredictSmall(params []float64) []float64 {
	return m.PredictSmallInto(params, make([]float64, len(m.Interp)))
}

// PredictSmallInto writes the interpolation level's runtime predictions
// at every small scale into dst (length len(Cfg.SmallScales)) and
// returns it. The call performs no allocations.
func (m *TwoLevelModel) PredictSmallInto(params, dst []float64) []float64 {
	if len(dst) != len(m.compiled) {
		panic(fmt.Sprintf("core: PredictSmallInto dst has %d entries, model has %d small scales", len(dst), len(m.compiled)))
	}
	for i, f := range m.compiled {
		v := f.Predict(params)
		if m.Cfg.LogInterpolation {
			v = math.Exp(v)
		}
		dst[i] = v
	}
	return dst
}

// predictSmallBatch returns the interpolation level's small-scale curves
// for every row (len(rows) × len(Cfg.SmallScales)), bit-identical to
// PredictSmall per row. Each compiled forest walks all rows at once with
// treec's blocked kernel, so the forest's node tables stream through
// the cache once per block of rows rather than once per row.
func (m *TwoLevelModel) predictSmallBatch(rows [][]float64) *mat.Dense {
	out := mat.NewDense(len(rows), len(m.compiled))
	if len(rows) == 0 || len(m.compiled) == 0 {
		return out
	}
	cols := m.compiled[0].E.Features
	x := mat.NewDense(len(rows), cols)
	for i, row := range rows {
		if len(row) != cols {
			panic(fmt.Sprintf("core: row %d has %d features, model has %d", i, len(row), cols))
		}
		copy(x.Row(i), row)
	}
	col := make([]float64, len(rows))
	for j, f := range m.compiled {
		f.PredictBatch(x, col)
		for i, v := range col {
			if m.Cfg.LogInterpolation {
				v = math.Exp(v)
			}
			out.Set(i, j, v)
		}
	}
	return out
}

// Predict returns predicted runtimes at every target scale (aligned with
// Cfg.LargeScales) for a configuration never executed at any scale.
func (m *TwoLevelModel) Predict(params []float64) []float64 {
	return m.PredictInto(params, make([]float64, len(m.Cfg.LargeScales)))
}

// PredictInto is Predict writing into dst (length len(Cfg.LargeScales)).
// In ModeAnchored with scale lists of at most curveBufSize entries the
// call performs no allocations.
func (m *TwoLevelModel) PredictInto(params, dst []float64) []float64 {
	var buf [curveBufSize]float64
	curve := buf[:]
	if len(m.Interp) <= curveBufSize {
		curve = buf[:len(m.Interp)]
	} else {
		curve = make([]float64, len(m.Interp))
	}
	m.PredictSmallInto(params, curve)
	return m.PredictFromCurveInto(curve, dst)
}

// PredictFromCurve extrapolates from an explicit small-scale runtime
// curve (e.g. actual measurements, for the oracle-input ablation or for
// users who have already run the small scales) to every target scale.
func (m *TwoLevelModel) PredictFromCurve(curve []float64) []float64 {
	return m.PredictFromCurveInto(curve, make([]float64, len(m.Cfg.LargeScales)))
}

// PredictFromCurveInto is PredictFromCurve writing into dst (length
// len(Cfg.LargeScales)). ModeAnchored predictions are allocation-free;
// ModeBasis refits a small scalability model per call and allocates.
func (m *TwoLevelModel) PredictFromCurveInto(curve, dst []float64) []float64 {
	k := len(m.Cfg.SmallScales)
	if len(curve) != k {
		panic(fmt.Sprintf("core: curve has %d points, model expects %d", len(curve), k))
	}
	if len(dst) != len(m.Cfg.LargeScales) {
		panic(fmt.Sprintf("core: PredictFromCurveInto dst has %d entries, model has %d target scales", len(dst), len(m.Cfg.LargeScales)))
	}
	return m.extrapolateInto(m.assign(curve), curve, dst)
}

// extrapolateInto runs cluster c's extrapolation model on a small-scale
// curve, writing the runtime at every target scale into dst.
func (m *TwoLevelModel) extrapolateInto(c int, curve, dst []float64) []float64 {
	if m.Cfg.Mode == ModeAnchored {
		return m.predictAnchoredInto(c, curve, dst)
	}
	for i, s := range m.Cfg.LargeScales {
		dst[i] = m.predictBasisAt(c, curve, s)
	}
	return dst
}

// AssignCluster returns the scaling-behaviour cluster a configuration's
// predicted curve falls into.
func (m *TwoLevelModel) AssignCluster(params []float64) int {
	return m.assign(m.PredictSmall(params))
}

func (m *TwoLevelModel) assign(curve []float64) int {
	if m.Centroids == nil || m.Centroids.Rows == 1 {
		return 0
	}
	// Clamp non-positive entries so shape normalization is defined, then
	// normalize in place — a stack buffer keeps the hot path
	// allocation-free for realistic curve lengths.
	var buf [curveBufSize]float64
	shape := buf[:]
	if len(curve) <= curveBufSize {
		shape = buf[:len(curve)]
	} else {
		shape = make([]float64, len(curve))
	}
	for i, v := range curve {
		if v <= 0 {
			v = 1e-12
		}
		shape[i] = v
	}
	cluster.NormalizeCurveInto(shape, shape)
	res := cluster.Result{Centroids: m.Centroids}
	return res.Assign(shape)
}

// Clusters returns the number of scaling-behaviour clusters in the model.
func (m *TwoLevelModel) Clusters() int { return len(m.ClusterModels) }

// Mode returns the resolved extrapolation backend.
func (m *TwoLevelModel) Mode() Mode { return m.Cfg.Mode }
