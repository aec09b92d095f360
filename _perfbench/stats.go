package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported
// percentile.
const tailMinBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSupported reports whether n samples leave at least tailMinBeyond
// beyond the q-quantile.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= tailMinBeyond
}

func sec(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// medianDur is the median of durations in the unit conv returns.
func medianDur(ds []time.Duration, conv func(time.Duration) float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = conv(d)
	}
	return median(xs)
}

// timeEach times fn over every input once, in order, and returns the
// median per call. A call shorter than a few microseconds is timed in
// blocks of reps calls.
func timeEach(n, reps int, fn func(i int)) time.Duration {
	ds := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn(i)
		}
		ds[i] = time.Since(t0) / time.Duration(reps)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}
