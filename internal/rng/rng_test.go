package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws of 100", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different streams produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 200; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split children produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalScaling(t *testing.T) {
	s := New(19)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Normal(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal(10,2) mean = %v", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(23)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(29)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(2.0)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(31)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBootstrapRange(t *testing.T) {
	s := New(37)
	idx := s.Bootstrap(nil, 50)
	if len(idx) != 50 {
		t.Fatalf("bootstrap length %d", len(idx))
	}
	for _, v := range idx {
		if v < 0 || v >= 50 {
			t.Fatalf("bootstrap index %d out of range", v)
		}
	}
}

func TestBootstrapReuse(t *testing.T) {
	s := New(38)
	buf := make([]int, 10)
	got := s.Bootstrap(buf, 10)
	if &got[0] != &buf[0] {
		t.Fatal("Bootstrap did not reuse provided buffer")
	}
}

func TestSampleDistinct(t *testing.T) {
	s := New(41)
	for _, tc := range []struct{ n, k int }{{10, 3}, {10, 10}, {1000, 5}, {5, 0}} {
		got := s.Sample(tc.n, tc.k)
		if len(got) != tc.k {
			t.Fatalf("Sample(%d,%d) length %d", tc.n, tc.k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("Sample(%d,%d) invalid: %v", tc.n, tc.k, got)
			}
			seen[v] = true
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(2,3) did not panic")
		}
	}()
	New(1).Sample(2, 3)
}

func TestSampleCoversAll(t *testing.T) {
	// Small-k Floyd path must be able to produce every index.
	s := New(43)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		for _, v := range s.Sample(20, 2) {
			seen[v] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("Sample(20,2) only ever produced %d distinct values", len(seen))
	}
}

func TestUniformRange(t *testing.T) {
	s := New(47)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(53)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestMul64MatchesBigMul(t *testing.T) {
	// property: mul64 agrees with the identity on low bits and with
	// independent high-bit computation via per-32-bit decomposition.
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		if lo != a*b {
			return false
		}
		// verify hi by long multiplication over 16-bit limbs
		var limbsA, limbsB [4]uint64
		for i := 0; i < 4; i++ {
			limbsA[i] = (a >> (16 * i)) & 0xffff
			limbsB[i] = (b >> (16 * i)) & 0xffff
		}
		var acc [8]uint64
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				acc[i+j] += limbsA[i] * limbsB[j]
			}
		}
		var carry uint64
		var words [8]uint64
		for i := 0; i < 8; i++ {
			v := acc[i] + carry
			words[i] = v & 0xffff
			carry = v >> 16
		}
		wantHi := words[4] | words[5]<<16 | words[6]<<32 | words[7]<<48
		return hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(61)
	p := []int{5, 6, 7, 8, 9}
	s.Shuffle(p)
	sum := 0
	for _, v := range p {
		sum += v
	}
	if sum != 35 {
		t.Fatalf("Shuffle changed multiset, sum=%d", sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Norm()
	}
	_ = sink
}
