//go:build race

package trustbench

// raceEnabled skips timing assertions: the race detector slows every
// goroutine several-fold.
const raceEnabled = true
