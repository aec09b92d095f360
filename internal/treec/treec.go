// Package treec compiles a fitted random forest (forest.Forest) into a
// flattened struct-of-arrays layout and walks it with two traversal
// kernels: a batch kernel that takes rows in blocks of 128 and descends
// each tree with four rows in lockstep, and a single-row kernel that
// descends up to 128 trees in lockstep for one row. Predictions are
// bit-identical to the pointer implementation — the compiled form
// reaches the same leaves via the same float comparisons and accumulates
// in the same order — which a differential fuzz suite enforces (see
// differential_test.go).
//
// Why compile: the pointer layout pays a 40-byte Node struct per hop plus
// a data-dependent branch per split, and every tree's node slice is a
// separate heap object. The compiled Ensemble packs all trees of a model
// into three contiguous parallel arrays — split feature (int32), left
// child offset (int32), threshold (float64, doubling as the leaf value at
// leaf nodes) — renumbered in breadth-first order so a node's two children
// are always adjacent (right = left+1). Traversal then needs 16 bytes per
// node across dense streams, no pointer dereferences, and the left/right
// choice becomes a conditional increment the compiler lowers to a
// branchless flag-materializing SETcc + add, removing the
// ~50%-mispredicted branch that dominates random-forest inference.
//
// Why lockstep: a model's node tables (several MB for six 100-tree
// forests) exceed a core's L2, so inference is bound by memory latency,
// and one tree's walk is a chain of dependent loads with one miss in
// flight. Walking independent chains together overlaps their misses:
// four rows per tree in a batch, and for a single row, all trees of the
// forest one level at a time.
package treec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/tree"
)

// Ensemble is the flattened form of one or more trees: parallel
// struct-of-arrays node tables plus per-tree root offsets. All slices
// except Roots share one length (the total node count); entry j of each
// describes node j. Nodes of a tree are laid out breadth-first, so the
// top levels every row visits share cache lines, and an internal node's
// children occupy consecutive slots.
type Ensemble struct {
	// Feature is the split feature per node, -1 for leaves.
	Feature []int32
	// Child is the left-child offset per node; the right child is
	// Child[j]+1 by construction. Zero (unused) for leaves.
	Child []int32
	// Thresh is the split threshold per internal node; for leaves the
	// slot is reused for the leaf value, so traversal touches no fourth
	// array.
	Thresh []float64
	// Roots is the first node offset of each tree, in ensemble order.
	Roots []int32
	// Features is the input dimensionality, for validation.
	Features int
}

// NumTrees returns the number of compiled trees.
func (e *Ensemble) NumTrees() int { return len(e.Roots) }

// appendTree renumbers one pointer tree breadth-first into the ensemble
// arrays. order is scratch reused across trees (may be nil).
func (e *Ensemble) appendTree(t *tree.Tree, order []int32) []int32 {
	base := int32(len(e.Feature))
	e.Roots = append(e.Roots, base)
	order = append(order[:0], 0)
	// Children are enqueued in pairs, so they receive consecutive new
	// offsets — the invariant the traversal kernels rely on.
	for k := 0; k < len(order); k++ {
		n := &t.Nodes[order[k]]
		if n.Feature < 0 {
			e.Feature = append(e.Feature, -1)
			e.Child = append(e.Child, 0)
			e.Thresh = append(e.Thresh, n.Value)
			continue
		}
		e.Feature = append(e.Feature, int32(n.Feature))
		e.Child = append(e.Child, base+int32(len(order)))
		e.Thresh = append(e.Thresh, n.Threshold)
		order = append(order, n.Left, n.Right)
	}
	return order
}

// compileTrees flattens trees (all with the given feature count) into a
// fresh Ensemble, preallocating the node tables exactly.
func compileTrees(trees []*tree.Tree, features int) Ensemble {
	total := 0
	for _, t := range trees {
		total += len(t.Nodes)
	}
	e := Ensemble{
		Feature:  make([]int32, 0, total),
		Child:    make([]int32, 0, total),
		Thresh:   make([]float64, 0, total),
		Roots:    make([]int32, 0, len(trees)),
		Features: features,
	}
	var order []int32
	for _, t := range trees {
		order = e.appendTree(t, order)
	}
	return e
}

// laneTrees is how many trees one single-row walk descends together.
// The lanes' node indices live in a stack array of this size, so a
// forest of any size is walked in chunks of laneTrees trees.
const laneTrees = 128

// rowLeaves walks one row down up to laneTrees trees (roots) together,
// level by level, and leaves in leaf[k] the leaf node tree roots[k]
// reaches. One tree's walk is a chain of dependent loads, so walked one
// after another the trees of a forest whose tables exceed the cache
// keep one miss in flight at a time; each sweep here moves every tree
// that is not yet at a leaf down one level, and those loads are
// independent of each other. The left/right choice compiles to a
// branchless conditional increment (SETcc). The condition is the
// negation of the pointer implementation's `v <= threshold`, NOT
// `v > threshold`: the two differ on NaN inputs, and bit-identity must
// hold for every float.
func (e *Ensemble) rowLeaves(row []float64, roots []int32, leaf *[laneTrees]int32) {
	feat, child, th := e.Feature, e.Child, e.Thresh
	n := copy(leaf[:], roots)
	for moved := true; moved; {
		moved = false
		for k, j := range leaf[:n] {
			f := feat[j]
			if f < 0 {
				continue
			}
			var bump int32
			if !(row[f] <= th[j]) {
				bump = 1
			}
			leaf[k] = child[j] + bump
			moved = true
		}
	}
}

// rowSum returns the sum of every tree's leaf value for row, added in
// tree order, and stores tree t's leaf value in preds[t] when preds is
// non-nil.
func (e *Ensemble) rowSum(row, preds []float64) float64 {
	var leaf [laneTrees]int32
	var s float64
	for c := 0; c < len(e.Roots); c += laneTrees {
		roots := e.Roots[c:min(c+laneTrees, len(e.Roots))]
		e.rowLeaves(row, roots, &leaf)
		for k := range roots {
			v := e.Thresh[leaf[k]]
			if preds != nil {
				preds[c+k] = v
			}
			s += v
		}
	}
	return s
}

// blockRows is the row-block size for batch traversal: a block of rows
// stays hot in L1 while each tree's node table streams through once per
// block instead of once per row, and the node tables of consecutive
// trees are contiguous so the stream never seeks. 128 rows × 8 bytes of
// accumulator plus a ~6-feature row fits comfortably in a 32 KiB L1
// alongside the upper tree levels.
const blockRows = 128

// accumulate sets dst[i], which must be zero on entry, to the sum of
// leaf(row i) over every tree, walking trees over row blocks.
// Accumulation order per row is tree order, identical to the pointer
// implementation.
//
// Within a block, four rows traverse each tree in lockstep: a single
// traversal is a serial chain (load node, compare, load child, …) that
// leaves the core idle between dependent loads and mispredicted splits,
// while four independent chains overlap those stalls. Rows that reach
// their leaf early park (guarded by the lane's `f < 0` check) until the
// deepest lane finishes; the wasted iterations are bounded by the depth
// spread between four adjacent rows, which is small in practice. The
// rows left over after the groups of four take the single-row kernel,
// which walks all trees for one row together.
func (e *Ensemble) accumulate(x *mat.Dense, dst []float64) {
	data := x.Data
	cols := x.Cols
	feat, child, th := e.Feature, e.Child, e.Thresh
	for b := 0; b < x.Rows; b += blockRows {
		be := b + blockRows
		if be > x.Rows {
			be = x.Rows
		}
		tail := be - (be-b)%4
		for _, root := range e.Roots {
			for i := b; i < tail; i += 4 {
				r0 := data[(i+0)*cols : (i+0)*cols+cols : (i+0)*cols+cols]
				r1 := data[(i+1)*cols : (i+1)*cols+cols : (i+1)*cols+cols]
				r2 := data[(i+2)*cols : (i+2)*cols+cols : (i+2)*cols+cols]
				r3 := data[(i+3)*cols : (i+3)*cols+cols : (i+3)*cols+cols]
				j0, j1, j2, j3 := root, root, root, root
				f0, f1, f2, f3 := feat[j0], feat[j1], feat[j2], feat[j3]
				for f0 >= 0 || f1 >= 0 || f2 >= 0 || f3 >= 0 {
					if f0 >= 0 {
						var bump0 int32
						if !(r0[f0] <= th[j0]) {
							bump0 = 1
						}
						j0 = child[j0] + bump0
						f0 = feat[j0]
					}
					if f1 >= 0 {
						var bump1 int32
						if !(r1[f1] <= th[j1]) {
							bump1 = 1
						}
						j1 = child[j1] + bump1
						f1 = feat[j1]
					}
					if f2 >= 0 {
						var bump2 int32
						if !(r2[f2] <= th[j2]) {
							bump2 = 1
						}
						j2 = child[j2] + bump2
						f2 = feat[j2]
					}
					if f3 >= 0 {
						var bump3 int32
						if !(r3[f3] <= th[j3]) {
							bump3 = 1
						}
						j3 = child[j3] + bump3
						f3 = feat[j3]
					}
				}
				dst[i+0] += th[j0]
				dst[i+1] += th[j1]
				dst[i+2] += th[j2]
				dst[i+3] += th[j3]
			}
		}
		for i := tail; i < be; i++ {
			dst[i] = e.rowSum(data[i*cols:i*cols+cols:i*cols+cols], nil)
		}
	}
}

// Forest is a compiled random forest: the prediction is the mean of the
// per-tree leaf values, accumulated in tree order exactly like
// forest.Forest.
type Forest struct {
	E Ensemble
}

// CompileForest flattens a fitted forest.
func CompileForest(f *forest.Forest) *Forest {
	return &Forest{E: compileTrees(f.Trees, f.Features)}
}

// Predict returns the forest prediction for v, bit-identical to
// forest.Forest.Predict.
func (f *Forest) Predict(v []float64) float64 {
	if len(v) != f.E.Features {
		panic(fmt.Sprintf("treec: predict with %d features, forest has %d", len(v), f.E.Features))
	}
	return f.E.rowSum(v, nil) / float64(len(f.E.Roots))
}

// PredictBatch fills dst with forest predictions for every row of x; a
// nil dst is allocated. With a non-nil dst the call performs no
// allocations, and results are bit-identical to forest.Forest.PredictBatch.
func (f *Forest) PredictBatch(x *mat.Dense, dst []float64) []float64 {
	if x.Cols != f.E.Features {
		panic(fmt.Sprintf("treec: predict with %d features, forest has %d", x.Cols, f.E.Features))
	}
	if dst == nil {
		dst = make([]float64, x.Rows)
	}
	if len(dst) != x.Rows {
		panic("treec: PredictBatch dst length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	f.E.accumulate(x, dst)
	m := float64(len(f.E.Roots))
	for i := range dst {
		dst[i] /= m
	}
	return dst
}

// PredictQuantilesInto walks the compiled ensemble once, fills dst[i]
// with the qs[i]-quantile of per-tree predictions for v, and returns the
// ensemble mean — the same contract, accumulation order, and
// interpolation arithmetic as forest.Forest.PredictQuantilesInto, so
// conformal interval serving can run on the flat layout with zero
// allocations (given non-nil scratch).
func (f *Forest) PredictQuantilesInto(v, qs, preds, dst []float64) float64 {
	if len(v) != f.E.Features {
		panic(fmt.Sprintf("treec: predict with %d features, forest has %d", len(v), f.E.Features))
	}
	if len(dst) < len(qs) {
		panic("treec: quantile dst shorter than qs")
	}
	for _, q := range qs {
		if q < 0 || q > 1 {
			panic("treec: quantile outside [0,1]")
		}
	}
	n := len(f.E.Roots)
	if preds == nil {
		preds = make([]float64, n)
	} else if len(preds) < n {
		panic("treec: quantile scratch shorter than tree count")
	}
	preds = preds[:n]
	mean := f.E.rowSum(v, preds) / float64(n)
	// The mean is accumulated before the sort, and the interpolation below
	// is operation-for-operation the arithmetic in forest.PredictQuantilesInto,
	// keeping both bit-identical to the pointer path.
	sort.Float64s(preds)
	for i, q := range qs {
		pos := q * float64(len(preds)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			dst[i] = preds[lo]
			continue
		}
		frac := pos - float64(lo)
		dst[i] = preds[lo]*(1-frac) + preds[hi]*frac
	}
	return mean
}
