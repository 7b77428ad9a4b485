package nn_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/vec"
)

// TestWorkspacesBoundedByParallelism: a run creates one nn workspace per
// TrainBatch or EvalBatch that is ever in flight at once — the pool's workers
// plus the engine's own goroutine — however many nodes it has, under both
// engines. Run under -race it is also the concurrency test of the free list.
func TestWorkspacesBoundedByParallelism(t *testing.T) {
	const parallelism, rounds = 4, 3
	w, err := experiments.NewWorkload("cifar10", experiments.Micro, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Regular(w.Nodes, w.Degree, vec.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulation.Config{Rounds: rounds, EvalEvery: 1, Parallelism: parallelism}
	for _, async := range []bool{false, true} {
		nodes, err := experiments.BuildFleet(w, experiments.AlgoSpec{Kind: experiments.AlgoJWINS}, 7)
		if err != nil {
			t.Fatal(err)
		}
		nn.ResetWorkspaces()
		if async {
			eng := &simulation.AsyncEngine{Nodes: nodes, Topology: topology.NewStatic(g), TestSet: w.Dataset,
				Config: simulation.AsyncConfig{Config: cfg}}
			_, err = eng.Run()
		} else {
			eng := &simulation.Engine{Nodes: nodes, Topology: topology.NewStatic(g), TestSet: w.Dataset, Config: cfg}
			_, err = eng.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		n := nn.Workspaces()
		t.Logf("async=%v: %d nodes at Parallelism %d ran in %d workspaces", async, w.Nodes, parallelism, n)
		if n < 1 || n > parallelism+1 {
			t.Errorf("async=%v: created %d workspaces, want 1..%d", async, n, parallelism+1)
		}
	}
}
