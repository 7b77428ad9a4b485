package experiments

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/simulation"
)

// TestLazyFleetMatchesEager: copy-on-write fleets must be bit-identical to
// eagerly built ones across every algorithm — including CHOCO, whose replica
// bookkeeping requires all nodes to observe the same initial weights, and
// JWINS, which keeps a reference to the shared start vector and transforms
// it on the node's first call.
func TestLazyFleetMatchesEager(t *testing.T) {
	w, err := ScaleWorkload(8, 3)
	if err != nil {
		t.Fatalf("ScaleWorkload: %v", err)
	}
	for _, algo := range []Algo{AlgoFull, AlgoRandom, AlgoJWINS, AlgoChoco} {
		t.Run(string(algo), func(t *testing.T) {
			run := func(build func(*Workload, AlgoSpec, uint64) ([]core.Node, error)) *simulation.Result {
				nodes, err := build(w, AlgoSpec{Kind: algo}, 11)
				if err != nil {
					t.Fatalf("build fleet: %v", err)
				}
				res, err := runWithNodes(RunSpec{Workload: w, Algo: AlgoSpec{Kind: algo}, Seed: 11}, nodes)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return res
			}
			lazyRes := run(BuildFleet)
			eagerRes := run(BuildFleetEager)
			if len(lazyRes.Rounds) != len(eagerRes.Rounds) {
				t.Fatalf("row count: lazy %d, eager %d", len(lazyRes.Rounds), len(eagerRes.Rounds))
			}
			// Bit-identical, with NaN == NaN (rows before the first eval
			// cadence carry NaN test metrics).
			eq := func(a, b float64) bool {
				return a == b || (math.IsNaN(a) && math.IsNaN(b))
			}
			for i := range lazyRes.Rounds {
				l, e := lazyRes.Rounds[i], eagerRes.Rounds[i]
				if !eq(l.TrainLoss, e.TrainLoss) || !eq(l.TestLoss, e.TestLoss) || !eq(l.TestAcc, e.TestAcc) {
					t.Fatalf("row %d diverged: lazy %+v, eager %+v", i, l, e)
				}
			}
			if !eq(lazyRes.FinalAccuracy, eagerRes.FinalAccuracy) || !eq(lazyRes.FinalLoss, eagerRes.FinalLoss) {
				t.Fatalf("final diverged: lazy acc=%v loss=%v, eager acc=%v loss=%v",
					lazyRes.FinalAccuracy, lazyRes.FinalLoss, eagerRes.FinalAccuracy, eagerRes.FinalLoss)
			}
		})
	}
}

// TestWorkloadMemoization: repeated synthesis of the same workload key must
// share the expensive read-only pieces (dataset, partition) while still
// handing each caller a distinct *Workload, so callers can tweak Rounds or
// EvalEvery without corrupting the cache.
func TestWorkloadMemoization(t *testing.T) {
	a, err := NewWorkload("cifar10", Micro, 8, 7)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	b, err := NewWorkload("cifar10", Micro, 8, 7)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	if a == b {
		t.Fatal("NewWorkload returned the same *Workload twice; callers must get copies")
	}
	if a.Dataset != b.Dataset {
		t.Fatal("NewWorkload re-synthesized the dataset for an identical key")
	}
	c, err := NewWorkload("cifar10", Micro, 8, 8)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	if a.Dataset == c.Dataset {
		t.Fatal("NewWorkload shared a dataset across different seeds")
	}

	s1, err := ScaleWorkload(32, 5)
	if err != nil {
		t.Fatalf("ScaleWorkload: %v", err)
	}
	s2, err := ScaleWorkload(32, 5)
	if err != nil {
		t.Fatalf("ScaleWorkload: %v", err)
	}
	if s1 == s2 {
		t.Fatal("ScaleWorkload returned the same *Workload twice")
	}
	if s1.Dataset != s2.Dataset {
		t.Fatal("ScaleWorkload re-synthesized the dataset for an identical key")
	}
}

// TestLazyFleetDefersMaterialization: a freshly built fleet must not have
// built any per-node layer graphs yet — that deferral is the whole point of
// the copy-on-write path.
func TestLazyFleetDefersMaterialization(t *testing.T) {
	w, err := ScaleWorkload(16, 3)
	if err != nil {
		t.Fatalf("ScaleWorkload: %v", err)
	}
	nodes, err := BuildFleet(w, AlgoSpec{Kind: AlgoJWINS}, 11)
	if err != nil {
		t.Fatalf("build fleet: %v", err)
	}
	for i, nd := range nodes {
		lz, ok := nd.Model().(*nn.Lazy)
		if !ok {
			t.Fatalf("node %d model is %T, want *nn.Lazy", i, nd.Model())
		}
		if lz.Materialized() {
			t.Fatalf("node %d materialized at construction", i)
		}
	}
	// First local training materializes exactly that node.
	nodes[3].LocalTrain()
	for i, nd := range nodes {
		if got := nd.Model().(*nn.Lazy).Materialized(); got != (i == 3) {
			t.Fatalf("node %d materialized = %v after training node 3", i, got)
		}
	}
}

// fleetAllocPerNodeCeiling is the committed per-node allocation budget of
// copy-on-write fleet construction (BuildFleet over ScaleWorkload). A lazy
// node costs its Lazy wrapper, build closure, RNG splits, loader, and
// full-sharing shell — which holds no vectors since call scratch moved to
// the fleet-shared working sets; measured 8.0 allocs/node on go1.24/amd64 —
// while an eager node adds the whole MLP layer graph (34.0). The ceiling
// leaves toolchain headroom but fails if per-node model construction or
// per-node scratch ever sneaks back into the build path.
const fleetAllocPerNodeCeiling = 16.0

// TestFleetConstructionAllocBudget guards the copy-on-write win: fleets at
// two sizes are measured and differenced, so the shared template model and
// the memoized workload cancel, leaving the marginal cost per node.
func TestFleetConstructionAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-insensitive but not free")
	}
	const (
		loNodes, hiNodes = 256, 1024
		samples          = 3
		seed             = 42
	)
	spec := AlgoSpec{Kind: AlgoFull, Codec: codec.Raw32{}}
	perNode := func(build func(*Workload, AlgoSpec, uint64) ([]core.Node, error)) float64 {
		measure := func(n int) float64 {
			w, err := ScaleWorkload(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(samples, func() {
				if _, err := build(w, spec, seed); err != nil {
					t.Fatal(err)
				}
			})
		}
		return (measure(hiNodes) - measure(loNodes)) / float64(hiNodes-loNodes)
	}
	lazyPerNode, eagerPerNode := perNode(BuildFleet), perNode(BuildFleetEager)
	t.Logf("fleet construction: lazy %.2f allocs/node, eager %.2f allocs/node", lazyPerNode, eagerPerNode)
	if lazyPerNode > fleetAllocPerNodeCeiling {
		t.Fatalf("lazy fleet construction allocates %.2f/node, ceiling is %.1f", lazyPerNode, fleetAllocPerNodeCeiling)
	}
	if lazyPerNode >= eagerPerNode {
		t.Fatalf("lazy construction (%.2f allocs/node) no cheaper than eager (%.2f): copy-on-write is not deferring model builds",
			lazyPerNode, eagerPerNode)
	}
}
