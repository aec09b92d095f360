package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// dropAfter is how late an arrival may be before the generator drops it
// instead of sending it: a dropped arrival is a miss in ok_ratio, and a
// phase that drops any is one the generator could not keep.
const dropAfter = time.Second

// outcome is what happened to one scheduled arrival. Offsets are from
// the phase start.
type outcome struct {
	req *request
	// queued marks an arrival that was already due when a sender became
	// free to take it: its wait for a connection is queueing, part of its
	// latency. Only the others measure the generator's own timeliness.
	queued  bool
	sent    time.Duration
	done    time.Duration
	status  int
	body    []byte
	err     error
	dropped bool
	verdict tally // set by oracle.verify
}

// latency is the arrival's latency measured from when it was due, so a
// stall also counts against the requests queued behind it.
func (o *outcome) latency() time.Duration { return o.done - o.req.due }

// lateness is how long after its due time the arrival was sent.
func (o *outcome) lateness() time.Duration { return o.sent - o.req.due }

// newClient returns an HTTP client with at most one connection per
// sending goroutine.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 10 * time.Second,
	}
}

// senders is the number of sending goroutines and connections: one per
// CPU the benchmark may use.
func senders() int { return runtime.NumCPU() }

// drive plays an open-loop schedule against base: senders() goroutines
// take arrivals in due order, wait until each is due and send it. When
// drop is set, an arrival more than dropAfter late is dropped, not sent;
// a warm-up, all due at once, sets none.
func drive(ctx context.Context, client *http.Client, base string, reqs []request, drop bool) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < senders(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				r := &reqs[i]
				o := &out[i]
				o.req = r
				o.queued = time.Since(start) > r.due
				sleepUntil(start, r.due)
				o.sent = time.Since(start)
				if drop && o.lateness() > dropAfter {
					o.dropped = true
					continue
				}
				o.status, o.body, o.err = send(ctx, client, base+r.path(), r.id, r.body)
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks until offset after start. It sleeps in nanosleep
// rather than time.Sleep: the Go runtime's timers wake up to a
// millisecond late when the process is otherwise idle, which would
// count against every latency measured from the due time.
func sleepUntil(start time.Time, offset time.Duration) {
	for {
		d := offset - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// send posts one body and reads the whole answer.
func send(ctx context.Context, client *http.Client, url, id string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
