package simulation

import (
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// schedulerAllocCeiling is the committed per-event allocation budget of the
// steady-state event loop (raw32 codec, serial pool). The loop itself is
// allocation-free since the event heap, payload maps, and nn scratch were
// pooled; what remains per train-done event is the freshly encoded
// broadcast payload (which must be a new allocation — it is retained by
// neighbors) plus map-bucket growth amortized across the run. Measured 0.88
// allocs/event on go1.24/amd64; the ceiling leaves headroom for toolchain
// noise while still failing on any O(1)-per-event regression (the engine
// before pooling sat at ~12).
const schedulerAllocCeiling = 4.0

// allocRun executes one serial 16-node full-sharing raw32 run and returns
// its event count, read from the run's Record sink. Telemetry and recording
// are on on purpose: the instrumented hot path must stay under the same
// ceiling — every metric op is a pre-registered atomic (see telemetry.go),
// and the registry construction is rounds-independent so the lo/hi
// differencing cancels it exactly.
func allocRun(t *testing.T, rounds int) int64 {
	t.Helper()
	const n = 16
	ds, parts := buildTask(t, n, 42)
	nodes := buildNodes(t, algoFull, ds, parts, 7)
	g, err := topology.Regular(n, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	var events int64
	eng := &AsyncEngine{
		Nodes: nodes, Topology: topology.NewStatic(g), TestSet: ds,
		Config: AsyncConfig{
			Config: Config{Rounds: rounds, EvalEvery: rounds, Parallelism: 1},
			Record: sinkFunc(func(ev trace.Event) {
				if scheduled(ev.Kind) {
					events++
				}
			}),
			Telemetry: NewTelemetry(),
		},
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return events
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
		return testing.AllocsPerRun(samples, func() { allocRun(t, rounds) })
	}
	loEvents, hiEvents := allocRun(t, loRounds), allocRun(t, hiRounds)
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

// syncRun executes one serial 16-node full-sharing flate32 synchronous run,
// evaluated once at the end, and returns its result.
func syncRun(t *testing.T, rounds int) *Result {
	t.Helper()
	const n = 16
	ds, parts := buildTask(t, n, 42)
	nodes := buildNodesWithCodec(t, algoFull, ds, parts, 7, codec.PlaneFlate32{})
	g, err := topology.Regular(n, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Nodes: nodes, Topology: topology.NewStatic(g), TestSet: ds,
		Config: Config{Rounds: rounds, EvalEvery: rounds, Parallelism: 1}}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// bytesPerRun is testing.AllocsPerRun counting bytes (MemStats.TotalAlloc)
// instead of allocations: one warm-up call, then the mean over runs calls.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSyncRoundAllocationCeiling guards the synchronous round's steady-state
// heap traffic the way TestSchedulerAllocationCeiling guards the event
// loop's allocation count: whole runs at two round budgets are differenced,
// so set-up and the final evaluation cancel. A round's payloads go back to
// their senders once it has consumed them, so a node-round must cost well
// under one payload; before that hand-back existed it cost at least one.
func TestSyncRoundAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-insensitive but not free")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled flate32 writers at random")
	}
	const (
		n                  = 16
		loRounds, hiRounds = 4, 12
		samples            = 3
	)
	res := syncRun(t, hiRounds)
	payload := float64(res.TotalBytes)/float64(hiRounds*n*4) - frameOverhead
	lo := bytesPerRun(samples, func() { syncRun(t, loRounds) })
	hi := bytesPerRun(samples, func() { syncRun(t, hiRounds) })
	perNodeRound := (hi - lo) / float64(n*(hiRounds-loRounds))
	t.Logf("steady state: %.0f B per node-round against a %.0f B payload (lo %.0f B, hi %.0f B)",
		perNodeRound, payload, lo, hi)
	if perNodeRound > payload/8 {
		t.Fatalf("a synchronous node-round allocates %.0f B, ceiling is 1/8 of a %.0f B payload", perNodeRound, payload)
	}
}
