//go:build race

package experiments

// raceEnabled reports a -race build. The race detector slows the full-size
// dataset synthesis of the paper-scale tests past what a CI step can wait
// for.
const raceEnabled = true
