package loadctl

import (
	"testing"
	"time"
)

// BenchmarkAcquireRelease measures the uncontended admit/release cycle —
// the cost added to every cache-hit prediction. It is for manual timing;
// TestFastPathZeroAllocs holds the zero-allocation contract.
func BenchmarkAcquireRelease(b *testing.B) {
	c := New(Config{InitialLimit: 64, FixedLimit: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, shed := c.Acquire(Point, 0)
		if w != nil || shed != nil {
			b.Fatalf("fast path not taken: w=%v shed=%v", w, shed)
		}
		c.Release(time.Millisecond)
	}
}

// BenchmarkAcquireReleaseParallel exercises mutex contention at the
// admission gate across GOMAXPROCS goroutines.
func BenchmarkAcquireReleaseParallel(b *testing.B) {
	c := New(Config{InitialLimit: 1 << 20, FixedLimit: true})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			w, shed := c.Acquire(Point, 0)
			if w != nil || shed != nil {
				b.Fatalf("fast path not taken: w=%v shed=%v", w, shed)
			}
			c.Release(time.Millisecond)
		}
	})
}
