//go:build race

package canon_test

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation counts mean nothing under it.
const raceEnabled = true
