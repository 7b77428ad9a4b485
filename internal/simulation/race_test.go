//go:build race

package simulation

// raceEnabled reports a -race build. The race detector drops sync.Pool items
// at random, so the codec's pooled flate32 writers are made again mid-run
// and byte counts of flate32 runs stop measuring the engine.
const raceEnabled = true
