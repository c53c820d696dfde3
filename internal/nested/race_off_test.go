//go:build !race

package nested

const raceEnabled = false
