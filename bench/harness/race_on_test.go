//go:build race

package harness

// raceEnabled reports whether the race detector, which slows the
// simulator several-fold, is on.
const raceEnabled = true
