// Package stats provides descriptive statistics, the prediction-error
// metrics used in the paper's evaluation (MAPE above all), correlation
// measures, and paired-bootstrap confidence intervals for comparing
// models on the same test set.
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Mean returns the arithmetic mean of x (0 for empty x).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance of x (0 if len < 2).
func Variance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Min returns the minimum of x; it panics on empty input.
func Min(x []float64) float64 {
	if len(x) == 0 {
		panic("stats: Min of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of x; it panics on empty input.
func Max(x []float64) float64 {
	if len(x) == 0 {
		panic("stats: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of x using linear
// interpolation between order statistics (type-7, the numpy default).
// It panics on empty input or q outside [0, 1].
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// ---- prediction-error metrics ----

func checkPaired(yTrue, yPred []float64) {
	if len(yTrue) != len(yPred) {
		panic(fmt.Sprintf("stats: paired metric length mismatch %d vs %d", len(yTrue), len(yPred)))
	}
	if len(yTrue) == 0 {
		panic("stats: paired metric of empty slices")
	}
}

// APE returns the per-point absolute percentage errors
// |yTrue-yPred| / |yTrue|. Points with yTrue == 0 are skipped; if all are
// zero the result is empty.
func APE(yTrue, yPred []float64) []float64 {
	checkPaired(yTrue, yPred)
	out := make([]float64, 0, len(yTrue))
	for i, yt := range yTrue {
		if yt == 0 {
			continue
		}
		out = append(out, math.Abs(yt-yPred[i])/math.Abs(yt))
	}
	return out
}

// MAPE returns the mean absolute percentage error as a fraction
// (multiply by 100 for percent). This is the paper's headline metric.
func MAPE(yTrue, yPred []float64) float64 { return Mean(APE(yTrue, yPred)) }

// RMSE returns the root mean squared error.
func RMSE(yTrue, yPred []float64) float64 {
	checkPaired(yTrue, yPred)
	var s float64
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(yTrue)))
}

// R2 returns the coefficient of determination. A constant-target sample
// yields 0 by convention (undefined in the usual formula).
func R2(yTrue, yPred []float64) float64 {
	checkPaired(yTrue, yPred)
	m := Mean(yTrue)
	var ssRes, ssTot float64
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		ssRes += d * d
		t := yTrue[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// Pearson returns the Pearson linear correlation of x and y
// (0 if either is constant).
func Pearson(x, y []float64) float64 {
	checkPaired(x, y)
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of x and y.
func Spearman(x, y []float64) float64 {
	checkPaired(x, y)
	return Pearson(ranks(x), ranks(y))
}

// ranks returns fractional (mid) ranks, handling ties by averaging.
func ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		//lint:allow floateq -- exact ties: rank correlation groups identical stored values
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// ---- bootstrap ----

// BootstrapCI estimates a (1-alpha) percentile confidence interval for
// statistic stat over sample x using b bootstrap resamples.
func BootstrapCI(r *rng.Source, x []float64, stat func([]float64) float64, b int, alpha float64) (lo, hi float64) {
	if len(x) == 0 {
		panic("stats: BootstrapCI of empty sample")
	}
	vals := make([]float64, b)
	resample := make([]float64, len(x))
	idx := make([]int, len(x))
	for i := 0; i < b; i++ {
		r.Bootstrap(idx, len(x))
		for j, k := range idx {
			resample[j] = x[k]
		}
		vals[i] = stat(resample)
	}
	return Quantile(vals, alpha/2), Quantile(vals, 1-alpha/2)
}

// PairedBootstrapMAPEDiff estimates a confidence interval for
// MAPE(model A) - MAPE(model B) on the same test points by resampling
// points jointly. A CI entirely below zero means A is significantly
// more accurate.
func PairedBootstrapMAPEDiff(r *rng.Source, yTrue, predA, predB []float64, b int, alpha float64) (lo, hi float64) {
	checkPaired(yTrue, predA)
	checkPaired(yTrue, predB)
	n := len(yTrue)
	diffs := make([]float64, b)
	idx := make([]int, n)
	yt := make([]float64, n)
	pa := make([]float64, n)
	pb := make([]float64, n)
	for i := 0; i < b; i++ {
		r.Bootstrap(idx, n)
		for j, k := range idx {
			yt[j], pa[j], pb[j] = yTrue[k], predA[k], predB[k]
		}
		diffs[i] = MAPE(yt, pa) - MAPE(yt, pb)
	}
	return Quantile(diffs, alpha/2), Quantile(diffs, 1-alpha/2)
}

// GeomMean returns the geometric mean of positive values; it panics if
// any value is non-positive or the slice is empty.
func GeomMean(x []float64) float64 {
	if len(x) == 0 {
		panic("stats: GeomMean of empty slice")
	}
	var s float64
	for _, v := range x {
		if v <= 0 {
			panic("stats: GeomMean requires positive values")
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(x)))
}
