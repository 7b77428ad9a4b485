package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/vec"
)

// runSync builds spec's fleet over w and runs it for the given rounds on the
// synchronous engine, returning the fleet so callers can keep it alive.
func runSync(t *testing.T, w *experiments.Workload, kind experiments.Algo, rounds, parallelism int) []core.Node {
	t.Helper()
	nodes, err := experiments.BuildFleet(w, experiments.AlgoSpec{Kind: kind}, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Regular(w.Nodes, w.Degree, vec.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	eng := &simulation.Engine{
		Nodes: nodes, Topology: topology.NewStatic(g), TestSet: w.Dataset,
		Config: simulation.Config{Rounds: rounds, EvalEvery: rounds, Parallelism: parallelism},
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return nodes
}

// TestWorkingSetsBoundedByParallelism: a run creates one working set per
// call that is ever in flight at once — the pool's workers plus the engine's
// own goroutine — however many nodes it has. Run under -race it is also the
// concurrency test of the free list.
func TestWorkingSetsBoundedByParallelism(t *testing.T) {
	const parallelism = 4
	w, err := experiments.NewWorkload("movielens", experiments.Micro, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []experiments.Algo{experiments.AlgoJWINS, experiments.AlgoFull, experiments.AlgoChoco} {
		core.ResetScratchList()
		runSync(t, w, kind, 4, parallelism)
		n := core.ScratchSets()
		t.Logf("%s: %d nodes at Parallelism %d ran in %d working sets", kind, w.Nodes, parallelism, n)
		if n < 1 || n > parallelism+1 {
			t.Errorf("%s: created %d working sets, want 1..%d", kind, n, parallelism+1)
		}
	}
}

// TestFleetRetainedMemory holds a fleet to the memory of its state: after two
// synchronous rounds and a forced GC, the heap may have grown per node by the
// model's parameters plus what the algorithm carries between calls — for
// JWINS base = DWT(x) - V and a one-bit-per-coefficient selection mask; for
// full sharing nothing — with a quarter on top for loaders, wrappers, the
// handed-back payloads and the few fleet-shared working sets. A model's
// gradients are no state: MF has none, and a Classifier's live in the nn
// workspace of the TrainBatch that runs. Before the call scratch moved out of
// the nodes a JWINS node retained about sixteen such vectors and a
// full-sharing node three; before DWT(x^(t,tau)) moved into it and the
// selection became a mask, a JWINS MF node retained about 1400 KB here.
func TestFleetRetainedMemory(t *testing.T) {
	const nodes = 96
	movielens, err := experiments.NewWorkload("movielens", experiments.Paper, nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark's 96-node model: 45,221 parameters.
	movielens.NewModel = func(r *vec.RNG) nn.Trainable { return nn.NewMatrixFactorization(960, 1700, 16, r) }
	// The scale-async task with a wider hidden layer: 35,332 parameters.
	images, err := experiments.ScaleWorkload(nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	images.NewModel = func(r *vec.RNG) nn.Trainable { return nn.NewMLP(64, 512, 4, r) }
	for _, w := range []*experiments.Workload{movielens, images} {
		dim := w.NewModel(vec.NewRNG(1)).ParamCount()
		coeffDim := (dim + 15) / 16 * 16 // padded to a multiple of 2^levels
		model := 8 * float64(dim)
		for _, tc := range []struct {
			kind  experiments.Algo
			state float64 // bytes per node
		}{
			{experiments.AlgoJWINS, model + 8*float64(coeffDim) + float64(coeffDim)/8},
			{experiments.AlgoFull, model},
		} {
			core.ResetScratchList()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			fleet := runSync(t, w, tc.kind, 2, 2)
			runtime.GC()
			runtime.GC() // twice: sync.Pool contents survive one cycle in the victim cache
			runtime.ReadMemStats(&after)
			perNode := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / nodes
			t.Logf("%s %s: %.0f KB retained per node, state is %.0f KB (dim %d, %d working sets)",
				w.Name, tc.kind, perNode/1024, tc.state/1024, dim, core.ScratchSets())
			if perNode > 1.25*tc.state {
				t.Errorf("%s %s: %.0f KB retained per node, want <= 1.25 x %.0f KB of state",
					w.Name, tc.kind, perNode/1024, tc.state/1024)
			}
			runtime.KeepAlive(fleet)
		}
	}
}
