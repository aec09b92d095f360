package serving

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Cache is an LRU cache with single-flight deduplication: concurrent
// DoBytes calls for the same missing key run the compute function once and
// share its result. Keys embed the model version (see predictKey), so a
// hot-swap naturally invalidates stale results without an explicit
// flush. A capacity <= 0 disables caching entirely (DoBytes always
// computes).
type Cache struct {
	capacity int

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flightCall

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	abandoned atomic.Int64 // coalesced waits given up via context
	evictions atomic.Int64
}

type cacheItem struct {
	key string
	val any
}

// flightCall is one in-progress computation other callers wait on. done
// is closed (after val/err are set) when the computation finishes; a
// channel rather than a WaitGroup so waiters can select against their
// request context and abandon the wait without abandoning the compute.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache creates a cache holding at most capacity entries.
func NewCache(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flightCall),
	}
}

// Get returns the cached value for key, marking it most recently used.
// It does not touch the hit/miss counters; DoBytes is the accounting
// path.
func (c *Cache) Get(key string) (any, bool) {
	if c.capacity <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// DoBytes returns the cached value for key, or runs fn exactly once
// across all concurrent callers of the same key and caches its result.
// The second return reports whether the value came from the cache (a
// coalesced caller that waited on another goroutine's computation also
// reports true — it did not compute). Errors are returned to every
// waiter and never cached.
//
// The key is built in a reusable byte buffer: the hit path looks it up
// without converting it to a string, so a cache hit performs no key
// allocation; the key bytes are only copied (once) on the miss/coalesce
// path. The buffer may be reused immediately after return.
//
// ctx bounds only the coalesced wait: a caller whose context ends while
// another goroutine computes the same key returns ctx.Err() immediately
// instead of blocking on the in-flight computation. The computing
// goroutine itself always runs fn to completion (the result is still
// valuable to the cache and to other waiters), so fn needs no
// cancellation plumbing of its own.
func (c *Cache) DoBytes(ctx context.Context, key []byte, fn func() (any, error)) (any, bool, error) {
	if c.capacity <= 0 {
		c.misses.Add(1)
		v, err := fn()
		return v, false, err
	}
	c.mu.Lock()
	// string(key) in a map index does not allocate.
	if el, ok := c.items[string(key)]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*cacheItem).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	skey := string(key) // miss: materialize the key once
	if fl, ok := c.inflight[skey]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-fl.done:
			return fl.val, fl.err == nil, fl.err
		case <-ctx.Done():
			// Abandon the wait, not the computation: the owner still
			// finishes and caches for the callers that remain.
			c.abandoned.Add(1)
			return nil, false, ctx.Err()
		}
	}
	fl := &flightCall{done: make(chan struct{})}
	c.inflight[skey] = fl
	c.mu.Unlock()

	c.misses.Add(1)
	fl.val, fl.err = fn()

	c.mu.Lock()
	delete(c.inflight, skey)
	if fl.err == nil {
		c.add(skey, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, false, fl.err
}

// add inserts under c.mu, evicting from the LRU tail past capacity.
func (c *Cache) add(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, val: val})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheItem).key)
		c.evictions.Add(1)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge drops every cached entry (in-flight computations are unaffected).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// CacheStats is a point-in-time view of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Abandoned int64 `json:"abandoned,omitempty"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Abandoned: c.abandoned.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.Len(),
		Capacity:  c.capacity,
	}
}
