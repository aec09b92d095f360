//go:build !race

package loadctl

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race because instrumentation allocates.
const raceEnabled = false
