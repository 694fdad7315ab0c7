//go:build race

package engine

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a random share of what is Put, so allocation pins that count on recycled
// worker scratch do not hold.
const raceEnabled = true
