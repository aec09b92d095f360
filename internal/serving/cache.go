package serving

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/obs"
)

// Cache is an LRU cache with single-flight deduplication. A caller
// claims a key: a hit returns the cached value, the first miss owns the
// computation and later claims of the same key wait on its flight
// instead of computing it again. The owner fulfils the claim, which
// caches a successful value and releases the waiters (see
// Server.computeRange). Keys embed the model version (see
// appendPredictKey), so a hot-swap naturally invalidates stale results
// without an explicit flush. A capacity <= 0 disables caching entirely
// (every claim is an owned miss). Its counters are handles in the obs
// registry it was built on, so /metrics JSON (Stats) and the Prometheus
// text read one store.
type Cache struct {
	capacity int

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flightCall

	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	abandoned *obs.Counter // coalesced waits given up via context
	evictions *obs.Counter
}

type cacheItem struct {
	key string
	val any
}

// flightCall is one in-progress computation other callers wait on. done
// is closed (after val/err are set) when the computation finishes; a
// channel rather than a WaitGroup so waiters can select against their
// request context and abandon the wait without abandoning the compute.
// owner identifies the batch that claimed it (nil for a one-key range).
type flightCall struct {
	key   string
	owner *batchOwner
	done  chan struct{}
	val   any
	err   error
}

// batchOwner identifies one batch's claims, so a key repeated inside
// the batch resolves to the batch's own flight instead of waiting on it.
// It is not zero-sized: distinct zero-size allocations may share an
// address, and each batch needs a pointer of its own.
type batchOwner struct{ _ byte }

// claimKind is the outcome of claiming one key.
type claimKind uint8

const (
	// claimHit: the value was cached.
	claimHit claimKind = iota
	// claimOwn: the caller must compute the value and fulfil the claim.
	claimOwn
	// claimRepeat: the key was claimed earlier by the same batch; it is
	// counted as a hit, as a serial pass would find the earlier result
	// cached, and resolves to that flight's result.
	claimRepeat
	// claimWait: another caller is computing the value; wait on it.
	claimWait
)

// claim is one key's lookup result. fl is the flight to fulfil
// (claimOwn; nil with caching disabled) or to read (claimRepeat,
// claimWait); val is the cached value on a hit. A batch keeps an owned
// claim's computed value and error in val and err.
type claim struct {
	kind claimKind
	val  any
	err  error
	fl   *flightCall
}

// NewCache creates a cache holding at most capacity entries and
// registers its cache_* series on reg.
func NewCache(capacity int, reg *obs.Registry) *Cache {
	c := &Cache{
		capacity:  capacity,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		inflight:  make(map[string]*flightCall),
		hits:      reg.Counter("cache_hits_total", "prediction cache hits"),
		misses:    reg.Counter("cache_misses_total", "prediction cache misses"),
		coalesced: reg.Counter("cache_coalesced_total", "lookups coalesced into an in-flight computation"),
		abandoned: reg.Counter("cache_abandoned_total", "coalesced waits given up when the caller's context ended"),
		evictions: reg.Counter("cache_evictions_total", "LRU evictions"),
	}
	reg.GaugeFunc("cache_entries", "live prediction cache entries", func() float64 { return float64(c.Len()) })
	return c
}

// Get returns the cached value for key, marking it most recently used.
// It does not touch the hit/miss counters; claim is the accounting
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

// claim looks key up and counts the lookup: a hit, a miss the caller now
// owns (registered as in flight, so concurrent callers coalesce on it),
// a repeat of owner's own earlier claim, or a coalesced wait on another
// caller's flight. With caching disabled every claim is an owned miss
// with no flight. key may be reused after return.
func (c *Cache) claim(key []byte, owner *batchOwner) claim {
	if c.capacity <= 0 {
		c.misses.Inc()
		return claim{kind: claimOwn}
	}
	c.mu.Lock()
	// string(key) in a map index does not allocate.
	if el, ok := c.items[string(key)]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*cacheItem).val
		c.mu.Unlock()
		c.hits.Inc()
		return claim{kind: claimHit, val: v}
	}
	if fl, ok := c.inflight[string(key)]; ok {
		c.mu.Unlock()
		if owner != nil && fl.owner == owner {
			c.hits.Inc()
			return claim{kind: claimRepeat, fl: fl}
		}
		c.coalesced.Inc()
		return claim{kind: claimWait, fl: fl}
	}
	skey := string(key) // miss: materialize the key once
	fl := &flightCall{key: skey, owner: owner, done: make(chan struct{})}
	c.inflight[skey] = fl
	c.mu.Unlock()
	c.misses.Inc()
	return claim{kind: claimOwn, fl: fl}
}

// fulfil completes an owned claim: a successful value is cached, and
// every waiter is released with the value or error. A nil flight (caching
// disabled) is a no-op.
func (c *Cache) fulfil(fl *flightCall, val any, err error) {
	if fl == nil {
		return
	}
	fl.val, fl.err = val, err
	c.mu.Lock()
	delete(c.inflight, fl.key)
	if err == nil {
		c.add(fl.key, val)
	}
	c.mu.Unlock()
	close(fl.done)
}

// wait blocks until another caller fulfils fl, or until ctx ends: the
// wait is abandoned, not the computation, which its owner still finishes
// and caches for the callers that remain. The second return is true on
// success (the value was not computed by this caller).
func (c *Cache) wait(ctx context.Context, fl *flightCall) (any, bool, error) {
	select {
	case <-fl.done:
		return fl.val, fl.err == nil, fl.err
	case <-ctx.Done():
		c.abandoned.Inc()
		return nil, false, ctx.Err()
	}
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
		c.evictions.Inc()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
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
