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

// lookup is one key's claim, then fulfil or wait: the path a
// one-configuration range takes through the cache (Server.computeRange).
// The second return reports whether the value came from the cache or
// from another caller's flight rather than from fn.
func lookup(ctx context.Context, c *Cache, key string, fn func() (any, error)) (any, bool, error) {
	cl := c.claim([]byte(key), nil)
	switch cl.kind {
	case claimHit:
		return cl.val, true, nil
	case claimOwn:
		v, err := fn()
		c.fulfil(cl.fl, v, err)
		return v, false, err
	}
	return c.wait(ctx, cl.fl)
}

func constant(v any) func() (any, error) {
	return func() (any, error) { return v, nil }
}

func TestCacheHitMiss(t *testing.T) {
	c := newTestCache(4)
	cl := c.claim([]byte("a"), nil)
	if cl.kind != claimOwn || cl.fl == nil {
		t.Fatalf("first claim = %+v, want an owned miss with a flight", cl)
	}
	c.fulfil(cl.fl, 1, nil)
	cl = c.claim([]byte("a"), nil)
	if cl.kind != claimHit || cl.val != 1 {
		t.Fatalf("second claim = %+v, want cached 1", cl)
	}
	v, hit, err := lookup(context.Background(), c, "a", constant(2))
	if err != nil || !hit || v != 1 {
		t.Fatalf("third lookup = %v, %v, %v (want cached 1)", v, hit, err)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newTestCache(2)
	lookup(context.Background(), c, "a", constant(1))
	lookup(context.Background(), c, "b", constant(2))
	lookup(context.Background(), c, "a", constant(0)) // touch a; b becomes LRU
	lookup(context.Background(), c, "c", constant(3)) // evicts b
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
	if _, _, err := lookup(context.Background(), c, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := lookup(context.Background(), c, "k", fn); !errors.Is(err, boom) {
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
			v, _, err := lookup(context.Background(), c, "hot", func() (any, error) {
				computes.Add(1)
				<-release // hold every concurrent caller in the miss window
				return "value", nil
			})
			if err != nil {
				t.Errorf("lookup: %v", err)
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
		_, _, err := lookup(context.Background(), c, "k", func() (any, error) {
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
		_, _, err := lookup(ctx, c, "k", func() (any, error) {
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
	lookup(context.Background(), c, "k", fn)
	v, hit, _ := lookup(context.Background(), c, "k", fn)
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
				v, _, err := lookup(context.Background(), c, key, constant(key))
				if err != nil || v != key {
					t.Errorf("lookup(%s) = %v, %v", key, v, err)
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
