//go:build !race

package core

// raceEnabled reports whether the race detector is on. It makes sync.Pool
// drop items at random, so what allocates through a pool drifts.
const raceEnabled = false
