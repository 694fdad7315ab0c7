//go:build race

package experiments

// raceEnabled reports that the race detector is on; the accuracy gate's ten
// full-scale runs take minutes under it.
const raceEnabled = true
