package nn

// ResetWorkspaces and Workspaces open the workspace free list to tests,
// including the engine-driven ones in package nn_test. Every workspace a run
// made is back on the list once the run has returned (workspaces are never
// dropped), so after a reset Workspaces is the number the run ever created.

// ResetWorkspaces empties the process-wide free list, so the next call
// makes a brand-new workspace.
func ResetWorkspaces() {
	workspaceList.mu.Lock()
	workspaceList.free = nil
	workspaceList.mu.Unlock()
}

func Workspaces() int {
	workspaceList.mu.Lock()
	defer workspaceList.mu.Unlock()
	return len(workspaceList.free)
}
