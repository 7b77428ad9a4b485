package perf

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/simulation"
	"repro/internal/topology"
)

// schedulerAllocCeiling is the committed per-event allocation budget of the
// steady-state event loop (raw32 codec, serial pool). The loop itself is
// allocation-free after the PR that pooled the event heap, payload maps, and
// nn scratch; what remains per train-done event is the freshly encoded
// broadcast payload (which must be a new allocation — it is retained by
// neighbors) plus map-bucket growth amortized across the run. Measured ~2.3
// allocs/event on go1.24; the ceiling leaves headroom for toolchain noise
// while still failing on any O(1)-per-event regression (the pre-PR engine
// sat at ~12).
const schedulerAllocCeiling = 4.0

// allocRun executes one serial raw32 engine run and returns its event count.
// Telemetry is enabled on purpose: the instrumented hot path must stay under
// the same ceiling — every metric op is a pre-registered atomic (see
// internal/simulation/telemetry.go), and the registry construction is
// rounds-independent so the lo/hi differencing cancels it exactly.
func allocRun(rounds int) (int64, error) {
	nodes, ds, topo, err := EngineFleet()
	if err != nil {
		return 0, err
	}
	var events int64
	eng := &simulation.AsyncEngine{
		Nodes: nodes, Topology: topo, TestSet: ds,
		Config: simulation.AsyncConfig{
			Config:    simulation.Config{Rounds: rounds, EvalEvery: rounds, Parallelism: 1},
			OnEvent:   func(simulation.Event) { events++ },
			Telemetry: simulation.NewTelemetry(),
		},
	}
	if _, err := eng.Run(); err != nil {
		return 0, err
	}
	return events, nil
}

// fleetAllocPerNodeCeiling is the committed per-node allocation budget of
// copy-on-write fleet construction (ScaleFleet). A lazy node costs its Lazy
// wrapper, build closure, two RNG splits, loader, and full-sharing shell —
// which holds no vectors since call scratch moved to the fleet-shared working
// sets; measured ~13 allocs/node on go1.24 (16 with the shell's three
// vectors) — while an eager node adds the whole MLP layer graph (~39). The
// ceiling leaves toolchain headroom but fails if per-node model construction
// or per-node scratch ever sneaks back into the build path.
const fleetAllocPerNodeCeiling = 16.0

// TestFleetConstructionAllocBudget guards the copy-on-write win the same way
// TestSchedulerAllocationCeiling guards the event loop: fleets at two sizes
// are measured and differenced, so the shared template model, topology, and
// memoized dataset fixture cancel, leaving the marginal cost per node.
func TestFleetConstructionAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-insensitive but not free")
	}
	const (
		loNodes, hiNodes = 256, 1024
		samples          = 3
	)
	build := func(f func(int) ([]int, error), n int) float64 {
		return testing.AllocsPerRun(samples, func() {
			if _, err := f(n); err != nil {
				t.Fatal(err)
			}
		})
	}
	lazy := func(n int) ([]int, error) { _, _, _, err := ScaleFleet(n); return nil, err }
	eager := func(n int) ([]int, error) { _, _, _, err := ScaleFleetEager(n); return nil, err }
	// Warm the memoized dataset fixtures so synthesis stays out of both
	// measurements.
	for _, n := range []int{loNodes, hiNodes} {
		if _, err := lazy(n); err != nil {
			t.Fatal(err)
		}
	}
	span := float64(hiNodes - loNodes)
	lazyPerNode := (build(lazy, hiNodes) - build(lazy, loNodes)) / span
	eagerPerNode := (build(eager, hiNodes) - build(eager, loNodes)) / span
	t.Logf("fleet construction: lazy %.2f allocs/node, eager %.2f allocs/node", lazyPerNode, eagerPerNode)
	if lazyPerNode > fleetAllocPerNodeCeiling {
		t.Fatalf("lazy fleet construction allocates %.2f/node, ceiling is %.1f", lazyPerNode, fleetAllocPerNodeCeiling)
	}
	if lazyPerNode >= eagerPerNode {
		t.Fatalf("lazy construction (%.2f allocs/node) no cheaper than eager (%.2f): copy-on-write is not deferring model builds",
			lazyPerNode, eagerPerNode)
	}
}

// shareBatchAllocCeiling is the committed per-share allocation budget of the
// batched pipeline. Each share inherently allocates its freshly encoded
// payload (retained by neighbors, so it cannot be pooled); everything else
// runs in the batch's working sets. Measured 1.00 allocs/share on go1.24.
const shareBatchAllocCeiling = 2.0

// TestShareBatchAllocationBudget guards the batched share pipeline's
// steady-state allocation rate: a warm SharePipeline over 8 plan-sharing
// 100k-parameter nodes must stay under the committed per-share ceiling.
func TestShareBatchAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-insensitive but not free")
	}
	const width = 8
	nodes, err := JWINSBatchNodes(100_000, width, codec.Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	pipe := &core.SharePipeline{}
	payloads := make([][]byte, width)
	bds := make([]codec.ByteBreakdown, width)
	// Warm the working sets, and let every node's k-sized index copy reach
	// the largest partial cut-off (it regrows only when a larger k is drawn).
	for i := 0; i < 16; i++ {
		if err := pipe.ShareBatch(nodes, payloads, bds); err != nil {
			t.Fatal(err)
		}
	}
	perShare := testing.AllocsPerRun(10, func() {
		if err := pipe.ShareBatch(nodes, payloads, bds); err != nil {
			t.Fatal(err)
		}
	}) / width
	t.Logf("batched share: %.2f allocs/share over a width-%d batch", perShare, width)
	if perShare > shareBatchAllocCeiling {
		t.Fatalf("batched share allocates %.2f/share, ceiling is %.1f", perShare, shareBatchAllocCeiling)
	}
}

// aggregateBatchAllocCeiling is the committed per-aggregate allocation budget
// of the batched pipeline: with warm scratch, the raw32 codec, and a shared
// decode cache, the steady state is fully pooled — the only allocations are
// the cache's once-per-payload ready channel and slot bookkeeping, amortized
// over the fan-out. Measured 0.25 allocs/aggregate on go1.24; the ceiling
// leaves headroom for runtime map-rehash noise only.
const aggregateBatchAllocCeiling = 0.5

// TestAggregateBatchAllocationBudget guards the batched aggregate pipeline's
// steady-state allocation rate: a warm AggregatePipeline over 8 plan-sharing
// 100k-parameter recipients of one broadcast payload must stay under the
// committed per-aggregate ceiling, decode cache on.
func TestAggregateBatchAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-insensitive but not free")
	}
	const width = 8
	nodes, err := JWINSBatchNodes(100_000, width+1, codec.Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	sender, recips := nodes[width], nodes[:width]
	dc := &core.DecodeCache{}
	for _, n := range recips {
		n.SetDecodeCache(dc)
	}
	payload, _, err := sender.Share(0)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]topology.Weights, width)
	msgs := make([]map[int][]byte, width)
	for i := range recips {
		ws[i] = topology.Weights{Self: 0.5, Neighbor: map[int]float64{width: 0.5}}
		msgs[i] = map[int][]byte{width: payload}
	}
	pipe := &core.AggregatePipeline{}
	warm := func() {
		dc.InvalidateSender(width)
		if err := pipe.AggregateBatch(recips, ws, msgs); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()
	perAgg := testing.AllocsPerRun(10, warm) / width
	t.Logf("batched aggregate: %.2f allocs/aggregate over a width-%d batch", perAgg, width)
	if perAgg > aggregateBatchAllocCeiling {
		t.Fatalf("batched aggregate allocates %.2f/aggregate, ceiling is %.1f", perAgg, aggregateBatchAllocCeiling)
	}
}

// TestSchedulerAllocationCeiling guards the event loop's steady-state
// allocation rate the way the JWINS hot-path AllocsPerRun tests guard the
// share/aggregate kernels. Whole runs at two round budgets are measured and
// differenced, so fleet construction, warm-up growth of the pooled buffers,
// and the final evaluation — identical in both — cancel, leaving the
// marginal cost per scheduler event.
func TestSchedulerAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-insensitive but not free")
	}
	const (
		loRounds, hiRounds = 4, 12
		samples            = 3
	)
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(samples, func() {
			if _, err := allocRun(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	loEvents, err := allocRun(loRounds)
	if err != nil {
		t.Fatal(err)
	}
	hiEvents, err := allocRun(hiRounds)
	if err != nil {
		t.Fatal(err)
	}
	if hiEvents <= loEvents {
		t.Fatalf("event counts did not grow with rounds: %d vs %d", loEvents, hiEvents)
	}
	loAllocs := measure(loRounds)
	hiAllocs := measure(hiRounds)
	perEvent := (hiAllocs - loAllocs) / float64(hiEvents-loEvents)
	t.Logf("steady state: %.2f allocs/event over %d marginal events (lo %d/%.0f, hi %d/%.0f)",
		perEvent, hiEvents-loEvents, loEvents, loAllocs, hiEvents, hiAllocs)
	if perEvent > schedulerAllocCeiling {
		t.Fatalf("steady-state event loop allocates %.2f/event, ceiling is %.1f", perEvent, schedulerAllocCeiling)
	}
}
