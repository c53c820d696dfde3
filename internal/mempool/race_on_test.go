//go:build race

package mempool

// raceEnabled reports that this binary was built with the race
// detector, under which allocation counts are not the program's own.
const raceEnabled = true
