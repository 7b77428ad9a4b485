package perf

import (
	"testing"

	"repro/internal/simulation"
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
