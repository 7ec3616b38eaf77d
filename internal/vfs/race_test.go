//go:build race

package vfs_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
