// Package tree implements CART regression trees: binary trees grown by
// greedy variance-reduction splitting on axis-aligned thresholds. Trees are
// the base learner of the random forest at the paper's interpolation level
// and of the gradient-boosting baseline.
//
// The implementation uses a presorted split search (see fitter.go): each
// feature's row order is sorted once per tree, and per-node orderings are
// maintained down the recursion by stable partition of the presorted index
// arrays, so a node's split search is a single linear scan per candidate
// feature — no per-node sorting. All scratch lives in a per-Fitter
// workspace that is reused across fits, so growing a tree allocates only
// the tree itself. A naive per-node-sorting reference splitter is retained
// in reference.go and differentially tested to produce byte-identical
// trees (see differential_test.go).
package tree

import "fmt"

// Params controls tree growth. The zero value is not valid; use Defaults.
type Params struct {
	MaxDepth       int // maximum depth; root is depth 0
	MinLeafSamples int // a split is rejected if either side would be smaller
	MinSplit       int // nodes with fewer samples become leaves
	// MaxFeatures is the number of features sampled (without replacement)
	// as split candidates at every node; <= 0 means all features.
	// Random forests set this to ~p/3.
	MaxFeatures int
	// MinImpurityDecrease rejects splits whose weighted variance reduction
	// is below this absolute threshold.
	MinImpurityDecrease float64
}

// Defaults returns reasonable regression-tree parameters: deep trees,
// small leaves — the standard choice for forest base learners.
func Defaults() Params {
	return Params{
		MaxDepth:       25,
		MinLeafSamples: 1,
		MinSplit:       2,
		MaxFeatures:    0,
	}
}

// withDefaults applies the documented growth-parameter defaults shared by
// Fit and FitIndices (and the reference splitter), and enforces that
// feature subsampling has a randomness source.
func (p Params) withDefaults(hasRNG bool) Params {
	if p.MaxDepth <= 0 {
		p.MaxDepth = Defaults().MaxDepth
	}
	if p.MinLeafSamples <= 0 {
		p.MinLeafSamples = 1
	}
	if p.MinSplit < 2 {
		p.MinSplit = 2
	}
	if p.MaxFeatures > 0 && !hasRNG {
		panic("tree: MaxFeatures > 0 requires a random source")
	}
	return p
}

// Node is one tree node. Leaves have Feature == -1.
type Node struct {
	Feature   int     `json:"f"`           // split feature, -1 for leaf
	Threshold float64 `json:"t,omitempty"` // go left when x[Feature] <= Threshold
	Left      int32   `json:"l,omitempty"` // child index into Tree.Nodes; 0 unused for leaves
	Right     int32   `json:"r,omitempty"` // child index into Tree.Nodes; 0 unused for leaves
	Value     float64 `json:"v"`           // mean target at this node (prediction for leaves)
	Samples   int32   `json:"n"`           // training rows that reached this node
}

// Tree is a fitted regression tree stored as a flat node array (index 0 is
// the root), which keeps serialization trivial and prediction cache-friendly.
type Tree struct {
	Nodes    []Node `json:"nodes"`
	Features int    `json:"features"` // input dimensionality, for validation
}

// Predict returns the tree's prediction for feature vector v.
func (t *Tree) Predict(v []float64) float64 {
	if len(v) != t.Features {
		panic(fmt.Sprintf("tree: predict with %d features, tree has %d", len(v), t.Features))
	}
	nodes := t.Nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.Feature < 0 {
			return n.Value
		}
		if v[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}
