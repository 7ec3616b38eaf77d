//go:build race

package analysis

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
