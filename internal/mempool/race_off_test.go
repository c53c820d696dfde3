//go:build !race

package mempool

const raceEnabled = false
