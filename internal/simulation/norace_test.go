//go:build !race

package simulation

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
