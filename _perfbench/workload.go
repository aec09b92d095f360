package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix. Every arrival schedule is open loop:
// independent schedulers asking for predictions, at a fixed offered rate
// set well below the mix's capacity so latency is read away from the
// saturation knee.
//
// No measured production traffic exists for this service, so the mixes
// are synthetic. The predict classes keep the shares of the repository's
// own load generator: cmd/loadgen's default point=0.7,interval=0.2,batch=0.1
// with its default batch of 32. /v1/observe, which cmd/loadgen does not
// send, takes a fixed share off the top and the predict classes share the
// rest in those proportions.
type workload struct {
	name  string
	mix   [nClasses]float64 // share of arrivals per class
	rate  float64           // fixed offered rate, requests/s
	set   int               // working-set size; 0 draws a fresh configuration every time
	batch int               // configurations per batch request
}

// withObserve splits the arrivals: share go to /v1/observe and the rest
// to the predict classes in the proportions given.
func withObserve(share, pointP, intervalP, batchP float64) [nClasses]float64 {
	rest := 1 - share
	return [nClasses]float64{point: rest * pointP, interval: rest * intervalP, batch: rest * batchP, observe: share}
}

// limits are the p99 latency limits capacity_rps is judged by, per
// class. They sit above the tails that a stall of the shared host adds
// below saturation, so a probe fails where a backlog starts to grow,
// not where the host happened to pause.
var limits = [nClasses]time.Duration{point: 100 * time.Millisecond, interval: 100 * time.Millisecond, batch: 200 * time.Millisecond, observe: 100 * time.Millisecond}

var workloads = []*workload{
	{
		// Cache hits: the working set is far below the 4096-entry cache
		// and is warmed first, so decode, admission, cache and encode do
		// the predict work. /v1/observe never uses the cache: each one
		// evaluates the model (PredictIntervalCov), so its share is the
		// smallest that still gives a steady median, 400 a window.
		name: "predict-hit",
		mix:  withObserve(0.05, 0.7, 0.2, 0.1),
		rate: 800,
		set:  64, batch: 32,
	},
	{
		// Cache misses: the same mix, but no configuration repeats, so
		// every one runs the interpolation forests, cluster assignment,
		// the multitask lasso and (for intervals) conformal calibration.
		// Batches of 80 exceed the 64-configuration fan-out threshold.
		name:  "predict-miss",
		mix:   withObserve(0.05, 0.7, 0.2, 0.1),
		rate:  150,
		batch: 80,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
