package main

import "testing"

// TestQuickstartRuns runs the walkthrough end to end: both fleets build,
// train and evaluate without an error.
func TestQuickstartRuns(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
