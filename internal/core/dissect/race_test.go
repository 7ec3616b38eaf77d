//go:build race

package dissect

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
