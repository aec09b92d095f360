// Command perfbench is the repository's end-to-end benchmark. It trains
// and calibrates a model generation with cmd/pipeline, serves it with
// cmd/serve, drives the server with an open-loop load generator, checks
// every answer against the same generation loaded in process, and prints
// one JSON result line last. See README.md beside this file.
//
// Usage (from the repository root, through run.sh, which builds first):
//
//	bash _perfbench/run.sh --workload predict-hit --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: predict-hit or predict-miss")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "length of the fixed-rate window")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		bin     = flag.String("bin", "", "directory holding the built serve and pipeline binaries")
		work    = flag.String("work", "", "scratch directory for stores, generations and logs")
	)
	flag.Parse()
	res, notes, err := run(*name, *seed, *seconds, *trace, *bin, *work, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(notes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result and report notes.
// smoke shrinks the data and traffic for the benchmark's own tests.
func run(name string, seed uint64, seconds, trace int, bin, work string, smoke bool) (*result, []string, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	if bin == "" || work == "" {
		return nil, nil, fmt.Errorf("-bin and -work are required; run through run.sh")
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return nil, nil, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r := &runner{
		ctx:     ctx,
		env:     env{bin: bin, work: filepath.Join(work, w.name)},
		w:       w,
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		sz:      sz,
	}
	// perfbench's own garbage would otherwise be collected while it
	// drives load; the heap stays far below the machine's memory.
	debug.SetGCPercent(400)
	total0, steal0, err := cpuStat()
	if err != nil {
		return nil, nil, err
	}
	var res *result
	if trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.endToEnd()
	}
	if total1, steal1, serr := cpuStat(); serr == nil && total1 > total0 {
		r.note("the hypervisor stole %.1f%% of the machine's CPU time during the run", 100*(steal1-steal0)/(total1-total0))
	}
	return res, r.notes, err
}
