//go:build !race

package canon_test

const raceEnabled = false
