package loadctl

import (
	"context"
	"sync"
	"testing"
	"time"
)

// cfg returns a small deterministic config: fixed or adaptive per test.
func cfg() Config {
	return Config{
		InitialLimit:  1,
		MaxLimit:      8,
		FixedLimit:    true,
		TargetLatency: 100 * time.Millisecond,
		QueueCapacity: 8,
	}
}

// acquireNow admits or fails the test; returns nothing (slot held).
func acquireNow(t *testing.T, c *Controller, class Class) {
	t.Helper()
	w, shed := c.Acquire(class, 0)
	if shed != nil {
		t.Fatalf("%s: unexpected shed %v", class, shed)
	}
	if w != nil {
		t.Fatalf("%s: unexpectedly queued", class)
	}
}

// enqueue queues a waiter or fails the test.
func enqueue(t *testing.T, c *Controller, class Class) *Waiter {
	t.Helper()
	w, shed := c.Acquire(class, 0)
	if shed != nil {
		t.Fatalf("%s: unexpected shed %v", class, shed)
	}
	if w == nil {
		t.Fatalf("%s: admitted immediately, expected to queue", class)
	}
	return w
}

// granted reports whether w's slot arrives within the timeout.
func granted(w *Waiter) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return w.Wait(ctx) == nil
}

func TestFastPathAdmitsUnderLimit(t *testing.T) {
	c := New(Config{InitialLimit: 2, FixedLimit: true})
	acquireNow(t, c, Point)
	acquireNow(t, c, Batch)
	s := c.Snapshot()
	if s.InFlight != 2 || s.Admitted.Total() != 2 || s.Admitted.Point != 1 || s.Admitted.Batch != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	c.Release(time.Millisecond)
	c.Release(time.Millisecond)
	s = c.Snapshot()
	if s.InFlight != 0 || s.Completed != 2 {
		t.Fatalf("after release: %+v", s)
	}
}

// TestFastPathZeroAllocs holds the admission contract the serving
// layer's allocation budget depends on: an uncontended Acquire/Release
// cycle, with a fixed or an adaptive limit, makes no allocations.
func TestFastPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	for _, fixed := range []bool{true, false} {
		c := New(Config{InitialLimit: 64, FixedLimit: fixed})
		n := testing.AllocsPerRun(1000, func() {
			if w, shed := c.Acquire(Point, 0); w != nil || shed != nil {
				t.Fatalf("fast path not taken: w=%v shed=%v", w, shed)
			}
			c.Release(time.Millisecond)
		})
		if n != 0 {
			t.Fatalf("fixed=%v: Acquire/Release allocates %v per cycle, want 0", fixed, n)
		}
	}
}

func TestPriorityGrantOrder(t *testing.T) {
	c := New(cfg()) // limit 1
	acquireNow(t, c, Point)
	wb := enqueue(t, c, Batch)
	wi := enqueue(t, c, Interval)
	wp := enqueue(t, c, Point)

	// Each release grants exactly one slot, highest priority first even
	// though batch queued before interval before point.
	order := []*Waiter{wp, wi, wb}
	for i, w := range order {
		c.Release(time.Millisecond)
		if !granted(w) {
			t.Fatalf("waiter %d (%s) not granted after release", i, w.Class())
		}
		for _, later := range order[i+1:] {
			select {
			case <-later.ready:
				t.Fatalf("%s granted before its turn", later.Class())
			default:
			}
		}
	}
	s := c.Snapshot()
	if s.Enqueued.Total() != 3 || s.Admitted.Total() != 4 || s.Queued != 0 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestClassQueueShares(t *testing.T) {
	// Queue 8: batch admitted while occupancy < 4, interval < 6, point < 8
	// (degraded latch at 7 fires first for point).
	c := New(cfg())
	acquireNow(t, c, Point)
	for i := 0; i < 4; i++ {
		enqueue(t, c, Batch)
	}
	if _, shed := c.Acquire(Batch, 0); shed == nil || shed.Reason != ShedQueueFull {
		t.Fatalf("5th batch: %v, want queue_full", shed)
	}
	// Interval and point still have room above batch's ceiling.
	enqueue(t, c, Interval)
	enqueue(t, c, Interval)
	if _, shed := c.Acquire(Interval, 0); shed == nil || shed.Reason != ShedQueueFull {
		t.Fatalf("interval past occupancy 6: %v, want queue_full", shed)
	}
	enqueue(t, c, Point) // occupancy 7 = high water: degraded latches
	if !c.Degraded() {
		t.Fatal("not degraded at high water")
	}
	if _, shed := c.Acquire(Point, 0); shed == nil || shed.Reason != ShedDegraded {
		t.Fatalf("point while degraded: %v, want degraded shed", shed)
	}
	s := c.Snapshot()
	if s.ShedQueueFull.Batch != 1 || s.ShedQueueFull.Interval != 1 || s.ShedDegraded.Point != 1 {
		t.Fatalf("shed counters %+v", s)
	}
	if s.MaxQueueDepth != 7 {
		t.Fatalf("max queue depth %d, want 7", s.MaxQueueDepth)
	}
}

// Interval's share is shared with batch: with the queue already holding
// 4 batch waiters, interval admissions stop at 6 total. The test above
// pins that; this one pins that interval alone can reach its own cap.
func TestIntervalShareAlone(t *testing.T) {
	c := New(cfg())
	acquireNow(t, c, Point)
	for i := 0; i < 6; i++ {
		enqueue(t, c, Interval)
	}
	if _, shed := c.Acquire(Interval, 0); shed == nil || shed.Reason != ShedQueueFull {
		t.Fatalf("7th interval: %v, want queue_full", shed)
	}
}

func TestBudgetShed(t *testing.T) {
	c := New(cfg()) // ewma seeded at the 100ms target
	acquireNow(t, c, Point)
	// est wait for a new request ≈ ewma × 1 / 1 = 100ms > 50ms budget.
	w, shed := c.Acquire(Point, 50*time.Millisecond)
	if w != nil || shed == nil || shed.Reason != ShedBudget {
		t.Fatalf("got (%v, %v), want budget shed", w, shed)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("budget shed carries no Retry-After: %+v", shed)
	}
	// A budget comfortably above the estimate queues instead.
	if w := enqueue(t, c, Point); w == nil {
		t.Fatal("roomy budget did not queue")
	}
	s := c.Snapshot()
	if s.ShedBudget.Point != 1 {
		t.Fatalf("shed counters %+v", s)
	}
}

func TestAIMDAdjustsLimit(t *testing.T) {
	c := New(Config{
		InitialLimit:  4,
		MinLimit:      1,
		MaxLimit:      6,
		AIMDWindow:    4,
		TargetLatency: 100 * time.Millisecond,
		Backoff:       0.5,
	})
	slow := func() {
		for i := 0; i < 4; i++ {
			acquireNow(t, c, Point)
			c.Release(300 * time.Millisecond)
		}
	}
	fast := func() {
		for i := 0; i < 4; i++ {
			acquireNow(t, c, Point)
			c.Release(time.Millisecond)
		}
	}
	slow() // mean 300ms > 100ms target → 4 × 0.5 = 2
	if s := c.Snapshot(); s.Limit != 2 || s.LimitDecreases != 1 {
		t.Fatalf("after slow window: %+v", s)
	}
	slow() // 2 × 0.5 = 1
	slow() // floor at MinLimit
	if s := c.Snapshot(); s.Limit != 1 || s.LimitDecreases != 3 {
		t.Fatalf("at floor: %+v", s)
	}
	for i := 0; i < 6; i++ {
		fast() // +1 per window
	}
	if s := c.Snapshot(); s.Limit != 6 || s.LimitIncreases != 6 {
		t.Fatalf("after recovery: %+v", s)
	}
	fast() // ceiling at MaxLimit
	if s := c.Snapshot(); s.Limit != 6 {
		t.Fatalf("above ceiling: %+v", s)
	}
}

func TestFixedModeNeverAdapts(t *testing.T) {
	c := New(cfg())
	for i := 0; i < 100; i++ {
		acquireNow(t, c, Point)
		c.Release(time.Second) // way over target
	}
	s := c.Snapshot()
	if s.Limit != 1 || s.Mode != "fixed" || s.LimitDecreases != 0 {
		t.Fatalf("fixed mode moved: %+v", s)
	}
}

func TestDegradedLatchAndClear(t *testing.T) {
	conf := cfg() // queue 8 → high water 7, low water 2
	c := New(conf)
	acquireNow(t, c, Point)
	var ws []*Waiter
	for i := 0; i < 6; i++ {
		ws = append(ws, enqueue(t, c, Point))
	}
	if c.Degraded() {
		t.Fatal("degraded below high water")
	}
	ws = append(ws, enqueue(t, c, Point)) // 7 queued = high water
	if !c.Degraded() {
		t.Fatal("not degraded at high water")
	}
	// While degraded, new work is shed outright even though the point
	// share technically has room.
	if _, shed := c.Acquire(Point, 0); shed == nil || shed.Reason != ShedDegraded {
		t.Fatalf("degraded acquire: %v", shed)
	}
	// Draining to the low-water mark clears the latch.
	for i := 0; i < 5; i++ {
		c.Release(time.Millisecond)
		if !granted(ws[i]) {
			t.Fatalf("waiter %d not granted", i)
		}
	}
	if c.Degraded() {
		t.Fatalf("still degraded with %d queued", c.Snapshot().Queued)
	}
	s := c.Snapshot()
	if s.DegradedEpisodes != 1 || s.ShedDegraded.Point != 1 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestNoteDegraded(t *testing.T) {
	c := New(cfg())
	c.NoteDegraded(Point, true)
	c.NoteDegraded(Batch, false)
	s := c.Snapshot()
	if s.DegradedServed != 1 || s.ShedDegraded.Batch != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if c.RetryAfter() <= 0 {
		t.Fatal("no retry hint")
	}
}

func TestWaitCancellation(t *testing.T) {
	c := New(cfg())
	acquireNow(t, c, Point)

	// Client-gone cancellation.
	w := enqueue(t, c, Point)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait: %v", err)
	}
	// Deadline expiry while queued.
	w = enqueue(t, c, Point)
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer dcancel()
	if err := w.Wait(dctx); err != context.DeadlineExceeded {
		t.Fatalf("Wait: %v", err)
	}
	s := c.Snapshot()
	if s.Canceled.Point != 1 || s.Timeouts.Point != 1 || s.Queued != 0 {
		t.Fatalf("snapshot %+v", s)
	}
	// The canceled waiters must not receive the next freed slot.
	w = enqueue(t, c, Point)
	c.Release(time.Millisecond)
	if !granted(w) {
		t.Fatal("live waiter starved by canceled predecessors")
	}
	if s := c.Snapshot(); s.InFlight != 1 {
		t.Fatalf("in-flight %d, want 1", s.InFlight)
	}
}

// TestGrantCancelRace hammers the grant-vs-cancel window: a waiter whose
// context fires just as Release grants it must hand the slot on, never
// leak it. Run with -race this also exercises the locking.
func TestGrantCancelRace(t *testing.T) {
	c := New(cfg())
	for round := 0; round < 200; round++ {
		acquireNow(t, c, Point)
		w := enqueue(t, c, Point)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); c.Release(time.Millisecond) }()
		go func() { defer wg.Done(); cancel() }()
		if err := w.Wait(ctx); err == nil {
			c.Release(time.Millisecond)
		}
		wg.Wait()
		if s := c.Snapshot(); s.InFlight != 0 || s.Queued != 0 {
			t.Fatalf("round %d leaked: %+v", round, s)
		}
	}
}

// TestConcurrentChurn drives many goroutines through acquire/wait/release
// under -race; every admitted request releases exactly once and the
// controller ends idle.
func TestConcurrentChurn(t *testing.T) {
	c := New(Config{InitialLimit: 4, FixedLimit: true, QueueCapacity: 64})
	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			class := Class(g % int(numClasses))
			for i := 0; i < perWorker; i++ {
				w, shed := c.Acquire(class, 0)
				if shed != nil {
					continue
				}
				if w != nil {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := w.Wait(ctx)
					cancel()
					if err != nil {
						continue
					}
				}
				c.Release(time.Duration(i%7) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("controller not idle after churn: %+v", s)
	}
	if s.Admitted.Total() != s.Completed {
		t.Fatalf("admitted %d != completed %d", s.Admitted.Total(), s.Completed)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.InitialLimit != 64 || c.MinLimit != 1 || c.MaxLimit != 1024 ||
		c.AIMDWindow != 32 || c.TargetLatency != 100*time.Millisecond ||
		c.Backoff != 0.75 || c.QueueCapacity != 128 {
		t.Fatalf("defaults %+v", c)
	}
	f := Config{FixedLimit: true, AIMDWindow: 99}.withDefaults()
	if f.AIMDWindow != 0 {
		t.Fatalf("FixedLimit did not zero the window: %+v", f)
	}
	// FixedLimit is the one switch: a negative window takes the default.
	if n := (Config{AIMDWindow: -1}).withDefaults(); n.AIMDWindow != 32 {
		t.Fatalf("negative window = %d after defaults, want 32", n.AIMDWindow)
	}
}

func TestShedErrorString(t *testing.T) {
	e := &ShedError{Reason: ShedQueueFull, Class: Batch, RetryAfter: time.Second}
	if e.Error() == "" {
		t.Fatal("empty error string")
	}
}
