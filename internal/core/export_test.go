package core

// ResetScratchList and ScratchSets open the working-set free list to tests,
// including the engine-driven ones in package core_test. Every set a run made
// is back on the list once the run has returned (sets are never dropped), so
// after a reset ScratchSets is the number of sets the run ever created.

// ResetScratchList empties the process-wide free list, so the next
// acquireScratch makes a brand-new working set.
func ResetScratchList() {
	scratchList.mu.Lock()
	scratchList.free = nil
	scratchList.mu.Unlock()
}

func ScratchSets() int {
	scratchList.mu.Lock()
	defer scratchList.mu.Unlock()
	return len(scratchList.free)
}

// FixedAlpha is the degenerate distribution sharing fraction a every round.
// The tests that pin one budget use it: TestJWINSFullAlphaMatchesFullSharing,
// TestJWINSAccumulatorReset, TestQuickShareBudgetRespected and
// TestJWINSLockstepTwin.
func FixedAlpha(a float64) AlphaDist {
	return AlphaDist{Values: []float64{a}, Probs: []float64{1}}
}
