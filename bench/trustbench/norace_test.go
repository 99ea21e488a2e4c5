//go:build !race

package trustbench

const raceEnabled = false
