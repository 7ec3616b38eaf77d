//go:build !race

package sflow

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
