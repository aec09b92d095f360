package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestCache builds a cache counting into a registry of its own.
func newTestCache(capacity int) *Cache { return NewCache(capacity, obs.NewRegistry("")) }

func constant(v any) func() (any, error) {
	return func() (any, error) { return v, nil }
}

func TestCacheHitMiss(t *testing.T) {
	c := newTestCache(4)
	v, hit, err := c.DoBytes(context.Background(), []byte("a"), constant(1))
	if err != nil || hit || v != 1 {
		t.Fatalf("first DoBytes = %v, %v, %v", v, hit, err)
	}
	v, hit, err = c.DoBytes(context.Background(), []byte("a"), constant(2))
	if err != nil || !hit || v != 1 {
		t.Fatalf("second DoBytes = %v, %v, %v (want cached 1)", v, hit, err)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newTestCache(2)
	c.DoBytes(context.Background(), []byte("a"), constant(1))
	c.DoBytes(context.Background(), []byte("b"), constant(2))
	c.DoBytes(context.Background(), []byte("a"), constant(0)) // touch a; b becomes LRU
	c.DoBytes(context.Background(), []byte("c"), constant(3)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Size != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newTestCache(4)
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, error) { calls++; return nil, boom }
	if _, _, err := c.DoBytes(context.Background(), []byte("k"), fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.DoBytes(context.Background(), []byte("k"), fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("error was cached: fn ran %d times, want 2", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after errors", c.Len())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newTestCache(16)
	var computes atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.DoBytes(context.Background(), []byte("hot"), func() (any, error) {
				computes.Add(1)
				<-release // hold every concurrent caller in the miss window
				return "value", nil
			})
			if err != nil {
				t.Errorf("DoBytes: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Hold the leader inside fn until every other caller has joined its
	// flight; releasing earlier lets a late caller take a cache hit
	// instead of coalescing.
	for c.Stats().Coalesced < waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrent identical misses, want 1", n)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
	s := c.Stats()
	if s.Coalesced != waiters-1 {
		t.Fatalf("coalesced = %d, want %d (stats %+v)", s.Coalesced, waiters-1, s)
	}
}

// TestCacheCoalescedWaitAbandonsOnCancel pins the request-cancellation
// contract: a coalesced waiter whose context ends returns promptly with
// ctx.Err() while the owning computation still runs to completion and
// caches its result for everyone else. Run under -race.
func TestCacheCoalescedWaitAbandonsOnCancel(t *testing.T) {
	c := newTestCache(4)
	inFn := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := c.DoBytes(context.Background(), []byte("k"), func() (any, error) {
			close(inFn)
			<-release
			return "v", nil
		})
		ownerDone <- err
	}()
	<-inFn // owner holds the flight

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.DoBytes(ctx, []byte("k"), func() (any, error) {
			t.Error("coalesced waiter recomputed the key")
			return nil, nil
		})
		waiterDone <- err
	}()
	for c.Stats().Coalesced == 0 { // waiter is parked on the flight
		runtime.Gosched()
	}

	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned wait returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced waiter did not abandon on cancellation")
	}

	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner: %v", err)
	}
	if v, ok := c.Get("k"); !ok || v != "v" {
		t.Fatalf("owner's result not cached after abandon: %v, %v", v, ok)
	}
	if s := c.Stats(); s.Abandoned != 1 || s.Coalesced != 1 {
		t.Fatalf("stats %+v, want Abandoned=1 Coalesced=1", s)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newTestCache(0)
	calls := 0
	fn := func() (any, error) { calls++; return calls, nil }
	c.DoBytes(context.Background(), []byte("k"), fn)
	v, hit, _ := c.DoBytes(context.Background(), []byte("k"), fn)
	if hit || v != 2 || calls != 2 {
		t.Fatalf("disabled cache served a hit: v=%v hit=%v calls=%d", v, hit, calls)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestCacheConcurrentMixed(t *testing.T) {
	c := newTestCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprint(i % 48) // wider than capacity: exercises eviction
				v, _, err := c.DoBytes(context.Background(), []byte(key), constant(key))
				if err != nil || v != key {
					t.Errorf("DoBytes(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
}
