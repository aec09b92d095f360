// Fixture command exercising the module-scoped analyzers: clockflow
// (clock values reaching persisted artifacts, directly, through helpers
// and along long call chains), randflow (clock-derived seeds, streams
// shared across goroutines), and the call-site precision of result
// summaries: a helper fed the clock by one caller taints no other
// caller's result, unless it stores the value where a later call can
// return it (a package variable, its receiver, a parameter's storage).
// `// want <analyzer>...` markers sit on the SOURCE lines, where both
// analyzers report.
package main

import (
	"fmt"
	"strconv"
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
	longChains()
	sharedHelper()
	cachedStamp()
	receiverStamp()
	memoStamp()
	sharedVarStamp()
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

// longChains feeds one clock read, laundered across thirteen call
// boundaries (c1..c13) and across thirty (d1..d17, then c1..c13), into
// journal entries and an rng seed. However long the chain, the flow is
// reported at the read in c13.
func longChains() {
	var j pipeline.Journal
	_ = j.Append(pipeline.Entry{Time: c1()})
	_ = j.Append(pipeline.Entry{Time: d1()})
	seed, _ := strconv.ParseUint(c1(), 10, 64)
	_ = rng.New(seed)
}

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

func d1() string  { return d2() }
func d2() string  { return d3() }
func d3() string  { return d4() }
func d4() string  { return d5() }
func d5() string  { return d6() }
func d6() string  { return d7() }
func d7() string  { return d8() }
func d8() string  { return d9() }
func d9() string  { return d10() }
func d10() string { return d11() }
func d11() string { return d12() }
func d12() string { return d13() }
func d13() string { return d14() }
func d14() string { return d15() }
func d15() string { return d16() }
func d16() string { return d17() }
func d17() string { return c1() }

// ident hands back its argument. One caller passes it the clock, which
// reaches no sink; the other passes a constant into a journal entry. The
// result is summarized per call site, so the entry stays clean.
func ident(s string) string { return s }

func sharedHelper() {
	fmt.Println(ident(time.Now().String()))
	_ = pipeline.Entry{Op: ident("train")}
}

// firstStamp keeps the first value remember is handed, and every later
// call returns it: the clock value one caller stores reaches another
// caller's journal entry.
var firstStamp string

func remember(s string) string {
	if firstStamp == "" {
		firstStamp = s
	}
	return firstStamp
}

func cachedStamp() {
	fmt.Println(remember(time.Now().String())) // want clockflow
	_ = pipeline.Entry{Time: remember("")}
}

// Stamp keeps the first value Remember is handed in its receiver, and
// every later call on it returns that value: the clock value one caller
// stores reaches another caller's journal entry.
type Stamp struct{ last string }

func (s *Stamp) Remember(v string) string {
	if s.last == "" {
		s.last = v
	}
	return s.last
}

func receiverStamp() {
	st := &Stamp{}
	fmt.Println(st.Remember(time.Now().String())) // want clockflow
	_ = pipeline.Entry{Time: st.Remember("")}
}

// memo stores into the map its caller passes: the same flow through a
// parameter's storage.
func memo(m map[string]string, k, v string) string {
	if _, ok := m[k]; !ok {
		m[k] = v
	}
	return m[k]
}

func memoStamp() {
	cache := map[string]string{}
	fmt.Println(memo(cache, "t", time.Now().String())) // want clockflow
	_ = pipeline.Entry{Time: memo(cache, "t", "")}
}

// sharedVarStamp stores the clock in another package's variable, which
// stampEntry (stamp.go) reads into a journal entry.
func sharedVarStamp() {
	core.LastStamp = time.Now().String() // want clockflow
	_ = stampEntry()
}

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
