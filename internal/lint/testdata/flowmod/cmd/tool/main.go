// Fixture command exercising the module-scoped analyzers: clockflow
// (clock values reaching persisted artifacts, directly and through
// helpers), randflow (clock-derived seeds, streams shared across
// goroutines), and the depth-bound give-up. `// want <analyzer>...`
// markers sit on the SOURCE lines, where both analyzers report.
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

func main() {
	direct()
	transitive()
	batchIngest()
	sanctioned()
	operational()
	_ = c1() // depth bound exceeded: give-up reported at the source
	seedFromClock()
	sharedStream()
	parentAndChild()
	splitPerGoroutine()
}

// direct writes a clock value straight into a persisted struct field.
func direct() {
	now := time.Now() // want clockflow
	var m core.TwoLevelModel
	m.Meta.Created = now.Format(time.RFC3339)
}

// stamp launders the clock through a helper before it reaches the journal.
func stamp() string { return time.Now().Format(time.RFC3339) } // want clockflow

func buildEntry(t string) pipeline.Entry { return pipeline.Entry{Time: t, Op: "train"} }

func transitive() {
	var j pipeline.Journal
	e := buildEntry(stamp())
	_ = j.Append(e)
}

// batchIngest stamps a table with the clock before it reaches the
// store's batch write path.
func batchIngest() {
	var s pipeline.Store
	t := &pipeline.Table{App: time.Now().Format(time.RFC3339)} // want clockflow
	_, _, _ = s.ImportTable(t)
}

// sanctioned is the annotated boundary: suppressed, and the directive is
// live (the audit must not flag it).
func sanctioned() {
	//lint:allow clockflow -- fixture: the one sanctioned boundary stamp
	note := time.Now().Format(time.RFC3339)
	var m core.TwoLevelModel
	_ = m.Save("model.bin", note)
}

// operational reads the clock for a log line only: no persisted sink.
func operational() {
	start := time.Now()
	fmt.Println(time.Since(start))
}

// c1..c13 launder a clock value across thirteen call boundaries — one
// more than the depth bound — so the engine must give up AND report.
func c1() string  { return c2() }
func c2() string  { return c3() }
func c3() string  { return c4() }
func c4() string  { return c5() }
func c5() string  { return c6() }
func c6() string  { return c7() }
func c7() string  { return c8() }
func c8() string  { return c9() }
func c9() string  { return c10() }
func c10() string { return c11() }
func c11() string { return c12() }
func c12() string { return c13() }
func c13() string { return time.Now().String() } // want clockflow randflow

// mkSeed derives an rng seed from the wall clock through a helper: the
// laundered form a syntactic check misses.
func mkSeed() uint64 { return uint64(time.Now().UnixNano()) } // want randflow

func seedFromClock() {
	s := rng.New(mkSeed())
	_ = s.Uint64()
	d := rng.New(uint64(time.Now().UnixNano())) // want randflow
	_ = d.Uint64()
}

// sharedStream hands one stream to two goroutines.
func sharedStream() {
	shared := rng.New(1)
	done := make(chan struct{}, 2)
	go func() { _ = shared.Uint64(); done <- struct{}{} }()
	go func() { _ = shared.Uint64(); done <- struct{}{} }() // want randflow
	<-done
	<-done
}

// parentAndChild uses one stream from a goroutine and its parent.
func parentAndChild() {
	s := rng.New(2)
	go func() { _ = s.Uint64() }() // want randflow
	_ = s.Uint64()
}

// splitPerGoroutine is the sanctioned pattern: derive a child before
// launching; parent and goroutine each own their stream.
func splitPerGoroutine() {
	root := rng.New(3)
	child := root.Split()
	go func() { _ = child.Uint64() }()
	_ = root.Uint64()
}
