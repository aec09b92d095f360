package cluster

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// blobs generates k well-separated Gaussian clusters.
func blobs(r *rng.Source, perCluster int, centers [][]float64, sigma float64) (*mat.Dense, []int) {
	k := len(centers)
	d := len(centers[0])
	x := mat.NewDense(perCluster*k, d)
	truth := make([]int, perCluster*k)
	for c := 0; c < k; c++ {
		for i := 0; i < perCluster; i++ {
			row := x.Row(c*perCluster + i)
			for j := 0; j < d; j++ {
				row[j] = centers[c][j] + sigma*r.Norm()
			}
			truth[c*perCluster+i] = c
		}
	}
	return x, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	r := rng.New(1)
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	x, truth := blobs(r, 50, centers, 0.5)
	res := KMeans(r, x, 3, Options{})
	// clusters must be pure: build the label mapping by majority
	mapping := map[int]int{}
	for c := 0; c < 3; c++ {
		counts := map[int]int{}
		for i, l := range res.Labels {
			if truth[i] == c {
				counts[l]++
			}
		}
		best, bestN := -1, -1
		for l, n := range counts {
			if n > bestN {
				best, bestN = l, n
			}
		}
		mapping[c] = best
	}
	errors := 0
	for i, l := range res.Labels {
		if mapping[truth[i]] != l {
			errors++
		}
	}
	if errors > 2 {
		t.Fatalf("%d/150 misassigned points", errors)
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	r := rng.New(2)
	centers := [][]float64{{0, 0}, {8, 8}, {0, 8}, {8, 0}}
	x, _ := blobs(r, 30, centers, 1.0)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		res := KMeans(rng.New(3), x, k, Options{})
		if res.Inertia > prev+1e-9 {
			t.Fatalf("inertia rose from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestKMeansK1IsGlobalMean(t *testing.T) {
	r := rng.New(3)
	x := mat.FromRows([][]float64{{1, 1}, {3, 3}, {5, 5}})
	res := KMeans(r, x, 1, Options{})
	c := res.Centroids.Row(0)
	if math.Abs(c[0]-3) > 1e-12 || math.Abs(c[1]-3) > 1e-12 {
		t.Fatalf("k=1 centroid = %v", c)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatal("k=1 label != 0")
		}
	}
}

func TestKMeansPanicsOnBadK(t *testing.T) {
	x := mat.NewDense(3, 2)
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for k=%d", k)
				}
			}()
			KMeans(rng.New(1), x, k, Options{})
		}()
	}
}

func TestKMeansAllLabelsValid(t *testing.T) {
	r := rng.New(4)
	centers := [][]float64{{0}, {5}}
	x, _ := blobs(r, 20, centers, 0.3)
	res := KMeans(r, x, 2, Options{})
	if len(res.Labels) != x.Rows {
		t.Fatal("label count mismatch")
	}
	for _, l := range res.Labels {
		if l < 0 || l >= 2 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestAssignMatchesLabels(t *testing.T) {
	r := rng.New(5)
	centers := [][]float64{{0, 0}, {6, 6}}
	x, _ := blobs(r, 25, centers, 0.4)
	res := KMeans(r, x, 2, Options{})
	for i := 0; i < x.Rows; i++ {
		if res.Assign(x.Row(i)) != res.Labels[i] {
			t.Fatalf("Assign disagrees with Labels at row %d", i)
		}
	}
}

func TestAssignDimPanics(t *testing.T) {
	res := &Result{Centroids: mat.NewDense(1, 2)}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	res.Assign([]float64{1})
}

func TestKMeansHandlesDuplicatePoints(t *testing.T) {
	// more clusters than distinct points: must not loop or crash
	x := mat.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}})
	res := KMeans(rng.New(6), x, 3, Options{})
	if res.Inertia < 0 {
		t.Fatal("negative inertia")
	}
}

func TestNormalizeCurvesShapeInvariance(t *testing.T) {
	// proportional curves must normalize identically
	curves := mat.FromRows([][]float64{
		{100, 60, 40, 30},
		{10, 6, 4, 3}, // same shape, 10x smaller
	})
	n := NormalizeCurves(curves)
	for j := 0; j < n.Cols; j++ {
		if math.Abs(n.At(0, j)-n.At(1, j)) > 1e-12 {
			t.Fatalf("proportional curves normalize differently at %d", j)
		}
	}
	if n.At(0, 0) != 0 {
		t.Fatal("first element should normalize to 0")
	}
}

func TestNormalizeCurvesDistinguishesShapes(t *testing.T) {
	curves := mat.FromRows([][]float64{
		{100, 50, 25, 12.5}, // perfect scaling
		{100, 90, 85, 83},   // poor scaling
	})
	n := NormalizeCurves(curves)
	var dist float64
	for j := 0; j < n.Cols; j++ {
		d := n.At(0, j) - n.At(1, j)
		dist += d * d
	}
	if dist < 1 {
		t.Fatalf("different shapes too close after normalization: %v", dist)
	}
}

func TestNormalizeCurvePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NormalizeCurveInto([]float64{1, 0, 2}, make([]float64, 3))
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	r1 := rng.New(11)
	x, _ := blobs(r1, 20, [][]float64{{0}, {9}}, 0.5)
	resA := KMeans(rng.New(5), x, 2, Options{})
	resB := KMeans(rng.New(5), x, 2, Options{})
	for i := range resA.Labels {
		if resA.Labels[i] != resB.Labels[i] {
			t.Fatal("k-means not deterministic for fixed seed")
		}
	}
}

func BenchmarkKMeans(b *testing.B) {
	r := rng.New(1)
	x, _ := blobs(r, 100, [][]float64{{0, 0}, {5, 5}, {0, 5}, {5, 0}}, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(rng.New(uint64(i)), x, 4, Options{})
	}
}
