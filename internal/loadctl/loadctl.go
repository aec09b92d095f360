// Package loadctl is the load-management layer between the network and
// every model: a bounded admission queue with deadline-budget shedding,
// an adaptive (AIMD) concurrency limiter, priority-aware rejection, and
// a degraded-mode latch for cache-only serving under saturation.
//
// The package is deliberately clock-free: it never reads the wall clock
// (repolint's nowallclock analyzer enforces this — internal/loadctl is
// not on the allowed list). Every time value it handles is a
// time.Duration measured and passed in by the caller at the serving
// boundary, so the controller's decisions are a pure function of its
// inputs and unit tests drive it with synthetic durations,
// deterministically.
//
// Admission flow (see Controller.Acquire):
//
//  1. If a concurrency slot is free and nobody is queued, admit
//     immediately. This path takes one mutex and allocates nothing.
//  2. Otherwise estimate the queue wait from the EWMA of observed
//     latencies. If the estimate exceeds the request's remaining
//     deadline budget, reject now (503 + Retry-After at the HTTP layer)
//     instead of letting the request time out downstream.
//  3. Each priority class has its own share of the bounded queue —
//     batch requests shed first, interval-bearing second, single point
//     predictions last. A class whose share is full is rejected.
//  4. Queued waiters are granted slots in priority order (FIFO within a
//     class) as completions free capacity; a waiter whose context
//     expires leaves the queue immediately.
//
// When the queue passes its high-water mark the controller latches
// degraded mode: the serving layer answers cache hits only (microsecond
// responses that need no slot) and sheds misses, until the queue drains
// below the low-water mark.
package loadctl

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Class is a request priority class. Lower values are shed later:
// single point predictions are the bounded-latency answers downstream
// schedulers depend on, while batches are bulk work that can retry.
type Class uint8

const (
	// Point is a single point prediction — shed last.
	Point Class = iota
	// Interval is an interval-bearing prediction — shed second.
	Interval
	// Batch is a multi-configuration request — shed first.
	Batch

	numClasses
)

// String returns the class's wire name.
func (c Class) String() string {
	switch c {
	case Point:
		return "point"
	case Interval:
		return "interval"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Config tunes a Controller. The zero value selects the defaults noted
// per field (see withDefaults).
type Config struct {
	// InitialLimit is the starting concurrency limit (default 64).
	InitialLimit int
	// MinLimit / MaxLimit bound the adaptive limit (defaults 1, 1024).
	MinLimit int
	MaxLimit int

	// AIMDWindow is how many completions are averaged per limit
	// adjustment (default 32, which zero or a negative value selects).
	AIMDWindow int
	// FixedLimit disables adaptation: the limit stays at InitialLimit
	// (fixed-limit fallback mode), whatever the window.
	FixedLimit bool
	// TargetLatency is the AIMD setpoint: when a window's mean observed
	// latency exceeds it the limit backs off multiplicatively, otherwise
	// it grows by one. Default 100ms.
	TargetLatency time.Duration
	// Backoff is the multiplicative-decrease factor in (0, 1); default 0.75.
	Backoff float64

	// QueueCapacity bounds the total number of queued waiters (default
	// 128). Class shares are occupancy ceilings: a batch request is only
	// admitted while total queue occupancy is below batchQueueFrac of
	// capacity, an interval request below intervalQueueFrac, and only
	// point requests may fill the queue completely — so as the queue
	// grows, batch is shed first, then interval, then point.
	QueueCapacity int
}

const (
	// batchQueueFrac / intervalQueueFrac are the class occupancy
	// ceilings described at Config.QueueCapacity.
	batchQueueFrac    = 0.5
	intervalQueueFrac = 0.75

	// degradeHighFrac / degradeLowFrac are the queue-occupancy fractions
	// at which degraded (cache-only) mode latches and clears. The
	// hysteresis gap keeps the mode from flapping.
	degradeHighFrac = 0.9
	degradeLowFrac  = 0.25

	// ewmaAlpha weights new observations in the latency estimate used
	// for queue-wait prediction.
	ewmaAlpha = 0.2
)

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.InitialLimit <= 0 {
		c.InitialLimit = 64
	}
	if c.MinLimit <= 0 {
		c.MinLimit = 1
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 1024
	}
	if c.MaxLimit < c.MinLimit {
		c.MaxLimit = c.MinLimit
	}
	if c.InitialLimit < c.MinLimit {
		c.InitialLimit = c.MinLimit
	}
	if c.InitialLimit > c.MaxLimit {
		c.InitialLimit = c.MaxLimit
	}
	if c.FixedLimit {
		c.AIMDWindow = 0
	} else if c.AIMDWindow <= 0 {
		c.AIMDWindow = 32
	}
	if c.TargetLatency <= 0 {
		c.TargetLatency = 100 * time.Millisecond
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = 0.75
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 128
	}
	return c
}

// Shed reasons carried by ShedError and reported in metrics.
const (
	ShedQueueFull = "queue_full" // the class's queue share is exhausted
	ShedBudget    = "budget"     // estimated wait exceeds the deadline budget
	ShedDegraded  = "degraded"   // cache-only mode and the answer was not cached
	ShedTimeout   = "timeout"    // the budget expired while queued
)

// ShedError reports a rejected request and how long the client should
// back off before retrying.
type ShedError struct {
	Reason     string
	Class      Class
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("overloaded: %s request shed (%s); retry after %s", e.Class, e.Reason, e.RetryAfter)
}

// Waiter is one queued request, returned by Acquire when the request
// must wait for a slot. Create only through Acquire.
type Waiter struct {
	c        *Controller
	class    Class
	ready    chan struct{}
	granted  bool
	canceled bool
}

// Controller is the admission controller. All methods are safe for
// concurrent use. The zero value is not usable; construct with New.
type Controller struct {
	cfg Config

	// class queue ceilings and degraded watermarks, precomputed.
	classCap  [numClasses]int
	highWater int
	lowWater  int

	mu       sync.Mutex
	limit    float64 // current concurrency limit (AIMD-adjusted)
	inflight int
	queues   [numClasses][]*Waiter // FIFO per class; canceled entries skipped lazily
	queuedN  int                   // total live (non-canceled) waiters
	ewma     float64               // EWMA of observed latency, nanoseconds
	winCount int
	winSum   float64 // nanoseconds
	degraded bool

	counters counters
}

// New builds a Controller; zero Config fields take the defaults.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:   cfg,
		limit: float64(cfg.InitialLimit),
		ewma:  float64(cfg.TargetLatency),
	}
	c.classCap[Point] = cfg.QueueCapacity
	c.classCap[Interval] = int(float64(cfg.QueueCapacity) * intervalQueueFrac)
	c.classCap[Batch] = int(float64(cfg.QueueCapacity) * batchQueueFrac)
	for cl := Class(0); cl < numClasses; cl++ {
		if c.classCap[cl] < 1 {
			c.classCap[cl] = 1
		}
	}
	c.highWater = int(float64(cfg.QueueCapacity) * degradeHighFrac)
	if c.highWater < 1 {
		c.highWater = 1
	}
	c.lowWater = int(float64(cfg.QueueCapacity) * degradeLowFrac)
	return c
}

// Config returns the controller's effective (default-filled) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Acquire requests a concurrency slot for one request of the given
// class with the given remaining deadline budget (0 means unbounded).
//
// Returns (nil, nil) when the request is admitted immediately — the
// caller owes exactly one Release. Returns (nil, *ShedError) when the
// request is rejected. Returns (w, nil) when the request is queued: the
// caller must call w.Wait with a context bounding the wait; a nil Wait
// error means admitted (one Release owed), a non-nil one means the
// waiter left the queue and no slot is held.
//
// The fast path (slot free, queue empty) performs no allocation.
func (c *Controller) Acquire(class Class, budget time.Duration) (*Waiter, *ShedError) {
	c.mu.Lock()
	if c.inflight < c.limitNow() && c.queuedN == 0 && !c.degraded {
		c.inflight++
		c.counters.admitted[class]++
		c.mu.Unlock()
		return nil, nil
	}
	if c.degraded {
		// The serving layer normally checks Degraded() first and serves
		// cache-only; anything that still lands here is shed outright.
		c.counters.shedDegraded[class]++
		retry := c.retryAfterLocked()
		c.mu.Unlock()
		return nil, &ShedError{Reason: ShedDegraded, Class: class, RetryAfter: retry}
	}
	if est := c.estWaitLocked(); budget > 0 && est > budget {
		c.counters.shedBudget[class]++
		c.mu.Unlock()
		return nil, &ShedError{Reason: ShedBudget, Class: class, RetryAfter: est}
	}
	if c.queuedN >= c.classCap[class] {
		c.counters.shedQueueFull[class]++
		retry := c.retryAfterLocked()
		c.mu.Unlock()
		return nil, &ShedError{Reason: ShedQueueFull, Class: class, RetryAfter: retry}
	}
	w := &Waiter{c: c, class: class, ready: make(chan struct{})}
	c.queues[class] = append(c.queues[class], w)
	c.queuedN++
	c.counters.enqueued[class]++
	if c.queuedN > c.counters.maxQueueDepth {
		c.counters.maxQueueDepth = c.queuedN
	}
	if !c.degraded && c.queuedN >= c.highWater {
		c.degraded = true
		c.counters.degradedEpisodes++
	}
	c.mu.Unlock()
	return w, nil
}

// Wait blocks until the waiter is granted a slot or ctx ends. A nil
// return means the slot is held and the caller owes one Release; a
// non-nil return (ctx.Err()) means the waiter was removed and holds
// nothing. A grant that races with cancellation is released internally.
func (w *Waiter) Wait(ctx context.Context) error {
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	c := w.c
	c.mu.Lock()
	if w.granted {
		// Granted between ctx firing and taking the lock: hand the slot
		// to the next waiter instead of using it.
		c.inflight--
		c.counters.admitted[w.class]--
		c.grantLocked()
	} else {
		w.canceled = true
		c.queuedN--
		c.maybeClearDegradedLocked()
	}
	if ctx.Err() == context.DeadlineExceeded {
		c.counters.timeouts[w.class]++
	} else {
		c.counters.canceled[w.class]++
	}
	c.mu.Unlock()
	return ctx.Err()
}

// Class returns the waiter's priority class.
func (w *Waiter) Class() Class { return w.class }

// Release returns a slot after a request finishes, feeding the observed
// service latency (slot grant to completion — callers exclude queue
// wait so a deep queue does not read as slow service) into the AIMD
// controller and the wait estimator, then grants freed capacity to
// queued waiters in priority order.
func (c *Controller) Release(observed time.Duration) {
	c.mu.Lock()
	c.inflight--
	c.counters.completed++
	c.ewma += ewmaAlpha * (float64(observed) - c.ewma)
	if c.cfg.AIMDWindow > 0 {
		c.winCount++
		c.winSum += float64(observed)
		if c.winCount >= c.cfg.AIMDWindow {
			mean := c.winSum / float64(c.winCount)
			if mean > float64(c.cfg.TargetLatency) {
				c.limit *= c.cfg.Backoff
				if c.limit < float64(c.cfg.MinLimit) {
					c.limit = float64(c.cfg.MinLimit)
				}
				c.counters.limitDecreases++
			} else {
				c.limit++
				if c.limit > float64(c.cfg.MaxLimit) {
					c.limit = float64(c.cfg.MaxLimit)
				}
				c.counters.limitIncreases++
			}
			c.winCount, c.winSum = 0, 0
		}
	}
	c.grantLocked()
	c.maybeClearDegradedLocked()
	c.mu.Unlock()
}

// Degraded reports whether the controller is in cache-only mode.
func (c *Controller) Degraded() bool {
	c.mu.Lock()
	d := c.degraded
	c.mu.Unlock()
	return d
}

// NoteDegraded records the outcome of a degraded-mode request: served
// from cache (hit) or shed (miss). The caller sheds misses itself with
// reason ShedDegraded; this only accounts for them.
func (c *Controller) NoteDegraded(class Class, hit bool) {
	c.mu.Lock()
	if hit {
		c.counters.degradedServed++
	} else {
		c.counters.shedDegraded[class]++
	}
	c.mu.Unlock()
}

// NoteTimeout records a budget expiry after admission (the deadline
// fired mid-compute). The serving layer sheds the request with reason
// ShedTimeout; this accounts for it so the shed counters cover every
// 503 emitted.
func (c *Controller) NoteTimeout(class Class) {
	c.mu.Lock()
	c.counters.timeouts[class]++
	c.mu.Unlock()
}

// RetryAfter returns the current backoff hint for an out-of-band shed
// decision (e.g. degraded-mode misses handled by the serving layer).
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	d := c.retryAfterLocked()
	c.mu.Unlock()
	return d
}

// limitNow is the integer concurrency limit (at least MinLimit).
func (c *Controller) limitNow() int {
	n := int(c.limit)
	if n < c.cfg.MinLimit {
		n = c.cfg.MinLimit
	}
	return n
}

// estWaitLocked estimates how long a newly queued request would wait:
// the work ahead of it (queued waiters plus the in-flight excess over
// the limit, plus itself) divided by the drain rate limit/ewma.
func (c *Controller) estWaitLocked() time.Duration {
	limit := c.limitNow()
	ahead := c.queuedN + 1
	if over := c.inflight - limit; over > 0 {
		ahead += over
	}
	return time.Duration(c.ewma * float64(ahead) / float64(limit))
}

// retryAfterLocked is the backoff hint attached to sheds: the estimated
// time for the current backlog to drain, floored at the AIMD target so
// clients never hammer a saturated server with sub-target retries.
func (c *Controller) retryAfterLocked() time.Duration {
	d := c.estWaitLocked()
	if d < c.cfg.TargetLatency {
		d = c.cfg.TargetLatency
	}
	return d
}

// grantLocked moves waiters into free slots, highest priority first,
// FIFO within a class. Canceled waiters are discarded as encountered.
func (c *Controller) grantLocked() {
	for c.inflight < c.limitNow() {
		w := c.popLocked()
		if w == nil {
			return
		}
		w.granted = true
		c.inflight++
		c.counters.admitted[w.class]++
		close(w.ready)
	}
}

// popLocked removes and returns the next live waiter in priority order.
func (c *Controller) popLocked() *Waiter {
	for class := Class(0); class < numClasses; class++ {
		q := c.queues[class]
		for len(q) > 0 {
			w := q[0]
			q[0] = nil
			q = q[1:]
			if w.canceled {
				continue
			}
			c.queues[class] = q
			c.queuedN--
			return w
		}
		c.queues[class] = q
	}
	return nil
}

// maybeClearDegradedLocked clears the degraded latch once the queue has
// drained below the low-water mark.
func (c *Controller) maybeClearDegradedLocked() {
	if c.degraded && c.queuedN <= c.lowWater {
		c.degraded = false
	}
}
