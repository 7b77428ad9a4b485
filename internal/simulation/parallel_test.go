package simulation

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/vec"
)

// parallelism levels every invariance test sweeps. NumCPU is appended so CI
// machines with more cores stress the pool harder than the fixed levels.
func parallelismLevels() []int {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	return levels
}

// eventKey is the comparable projection of an Event (the payload field is
// scheduler-internal and not part of the observable trace).
type eventKey struct {
	Time    float64
	Seq     int64
	Kind    EventKind
	Node    int
	From    int
	Iter    int
	Dropped bool
}

// capturedRun is everything a run observably produces: the full event trace,
// the byte ledger, and the result rows (train losses, eval metrics, alphas,
// staleness). Parallel execution must reproduce all of it bit for bit.
type capturedRun struct {
	trace  []eventKey
	result *Result
}

func captureAsyncRun(t *testing.T, nodes int, rounds int, parallelism int, mut func(*AsyncConfig)) capturedRun {
	t.Helper()
	return captureAsyncRunOn(t, algoJWINS, nodes, rounds, parallelism, mut, nil)
}

// captureAsyncRunOn is captureAsyncRun over a fleet of kind, passed through
// wrap (when non-nil) before the engine sees it.
func captureAsyncRunOn(t *testing.T, kind algo, nodes int, rounds int, parallelism int, mut func(*AsyncConfig), wrap func([]core.Node) []core.Node) capturedRun {
	t.Helper()
	ds, parts := buildTask(t, nodes, 42)
	fleet := buildNodes(t, kind, ds, parts, 7)
	if wrap != nil {
		fleet = wrap(fleet)
	}
	g, err := topology.Regular(nodes, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	var trace []eventKey
	cfg := AsyncConfig{
		Config: Config{Rounds: rounds, EvalEvery: 5, Parallelism: parallelism},
	}
	if mut != nil {
		mut(&cfg)
	}
	cfg.OnEvent = func(ev Event) {
		trace = append(trace, eventKey{ev.Time, ev.Seq, ev.Kind, ev.Node, ev.From, ev.Iter, ev.Dropped})
	}
	eng := &AsyncEngine{
		Nodes:    fleet,
		Topology: topology.NewStatic(g),
		TestSet:  ds,
		Config:   cfg,
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return capturedRun{trace: trace, result: res}
}

// sameFloat treats two NaNs as equal (rows without evaluation carry NaN).
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func assertRunsIdentical(t *testing.T, name string, ref, got capturedRun, p int) {
	t.Helper()
	if len(ref.trace) != len(got.trace) {
		t.Fatalf("%s: parallelism %d trace has %d events, serial %d", name, p, len(got.trace), len(ref.trace))
	}
	for i := range ref.trace {
		if ref.trace[i] != got.trace[i] {
			t.Fatalf("%s: parallelism %d event %d differs:\n serial  %+v\n parallel %+v",
				name, p, i, ref.trace[i], got.trace[i])
		}
	}
	a, b := ref.result, got.result
	if a.TotalBytes != b.TotalBytes || a.ModelBytes != b.ModelBytes || a.MetaBytes != b.MetaBytes {
		t.Fatalf("%s: parallelism %d ledger (%d,%d,%d) != serial (%d,%d,%d)",
			name, p, b.TotalBytes, b.ModelBytes, b.MetaBytes, a.TotalBytes, a.ModelBytes, a.MetaBytes)
	}
	if !sameFloat(a.FinalAccuracy, b.FinalAccuracy) || !sameFloat(a.FinalLoss, b.FinalLoss) {
		t.Fatalf("%s: parallelism %d final metrics (%v,%v) != serial (%v,%v)",
			name, p, b.FinalAccuracy, b.FinalLoss, a.FinalAccuracy, a.FinalLoss)
	}
	if a.SimTime != b.SimTime || !sameFloat(a.StaleMean, b.StaleMean) || !sameFloat(a.StaleP95, b.StaleP95) {
		t.Fatalf("%s: parallelism %d sim/staleness differ: %+v vs %+v", name, p, b, a)
	}
	if a.EffNeighborsMean != b.EffNeighborsMean || a.DropRate != b.DropRate || a.LateDrops != b.LateDrops {
		t.Fatalf("%s: parallelism %d policy metrics (%v,%v,%d) != serial (%v,%v,%d)",
			name, p, b.EffNeighborsMean, b.DropRate, b.LateDrops, a.EffNeighborsMean, a.DropRate, a.LateDrops)
	}
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("%s: parallelism %d emitted %d rows, serial %d", name, p, len(b.Rounds), len(a.Rounds))
	}
	for i := range a.Rounds {
		ra, rb := a.Rounds[i], b.Rounds[i]
		if ra.CumTotalBytes != rb.CumTotalBytes || ra.CumModelBytes != rb.CumModelBytes || ra.CumMetaBytes != rb.CumMetaBytes {
			t.Fatalf("%s: parallelism %d row %d bytes differ", name, p, i)
		}
		if !sameFloat(ra.TrainLoss, rb.TrainLoss) || !sameFloat(ra.TestLoss, rb.TestLoss) || !sameFloat(ra.TestAcc, rb.TestAcc) {
			t.Fatalf("%s: parallelism %d row %d losses differ: (%v,%v,%v) vs (%v,%v,%v)",
				name, p, i, rb.TrainLoss, rb.TestLoss, rb.TestAcc, ra.TrainLoss, ra.TestLoss, ra.TestAcc)
		}
		if !sameFloat(ra.MeanAlpha, rb.MeanAlpha) {
			t.Fatalf("%s: parallelism %d row %d mean alpha %v vs %v", name, p, i, rb.MeanAlpha, ra.MeanAlpha)
		}
		if !sameFloat(ra.StaleMean, rb.StaleMean) || !sameFloat(ra.StaleMax, rb.StaleMax) {
			t.Fatalf("%s: parallelism %d row %d staleness differs", name, p, i)
		}
	}
}

// TestAsyncParallelismInvariance: the acceptance property of the worker-pool
// refactor — a 16-node async run must produce the identical event trace,
// byte ledger, result rows, and final losses at every parallelism level,
// homogeneous and under churn+stragglers, over a JWINS fleet and over a
// full-sharing raw32 one (the engine's JWINS fast paths stay out of it).
func TestAsyncParallelismInvariance(t *testing.T) {
	hetChurnDrops := func(cfg *AsyncConfig) {
		cfg.Het = Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.4, LatencySpread: 0.2, Seed: 5}
		cfg.Churn = GenerateChurn(16, 0.25, 0.02, 0.2, 0.1, 77)
		cfg.DropProb = 0.1
		cfg.FaultSeed = 3
	}
	cases := []struct {
		name string
		kind algo
		mut  func(*AsyncConfig)
	}{
		{"homogeneous", algoJWINS, nil},
		{"het+churn+drops", algoJWINS, hetChurnDrops},
		{"het+churn+drops+full-sharing", algoFull, hetChurnDrops},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := captureAsyncRunOn(t, tc.kind, 16, 10, 1, tc.mut, nil)
			if len(ref.trace) == 0 {
				t.Fatal("no events traced")
			}
			for _, p := range parallelismLevels()[1:] {
				got := captureAsyncRunOn(t, tc.kind, 16, 10, p, tc.mut, nil)
				assertRunsIdentical(t, tc.name, ref, got, p)
			}
		})
	}
}

// TestAsyncParallelismInvarianceGossip: the non-blocking policy lets fast
// nodes run ahead of the emission floor, exercising the speculation guard
// (train tasks of ahead-of-floor nodes must not run before an evaluation).
func TestAsyncParallelismInvarianceGossip(t *testing.T) {
	mut := func(cfg *AsyncConfig) {
		cfg.Policy = GossipPolicy{}
		cfg.Het = Heterogeneity{ComputeSpread: 0.8, BandwidthSpread: 0.3, Seed: 21}
		cfg.Churn = GenerateChurn(8, 0.25, 0.02, 0.3, 0.1, 13)
	}
	ref := captureAsyncRun(t, 8, 12, 1, mut)
	for _, p := range parallelismLevels()[1:] {
		got := captureAsyncRun(t, 8, 12, p, mut)
		assertRunsIdentical(t, "gossip", ref, got, p)
	}
}

// TestSyncParallelismInvariance: the synchronous engine's pooled phases must
// match serial execution exactly too.
func TestSyncParallelismInvariance(t *testing.T) {
	run := func(parallelism int) *Result {
		const n = 8
		ds, parts := buildTask(t, n, 42)
		fleet := buildNodes(t, algoJWINS, ds, parts, 7)
		g, err := topology.Regular(n, 4, vec.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{
			Nodes:    fleet,
			Topology: topology.NewStatic(g),
			TestSet:  ds,
			Config:   Config{Rounds: 8, EvalEvery: 4, Parallelism: parallelism, DropProb: 0.1, FaultSeed: 3},
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, p := range parallelismLevels()[1:] {
		got := run(p)
		if got.TotalBytes != ref.TotalBytes || !sameFloat(got.FinalAccuracy, ref.FinalAccuracy) {
			t.Fatalf("parallelism %d: (%d bytes, %v acc) != serial (%d bytes, %v acc)",
				p, got.TotalBytes, got.FinalAccuracy, ref.TotalBytes, ref.FinalAccuracy)
		}
		for i := range ref.Rounds {
			if !sameFloat(ref.Rounds[i].TrainLoss, got.Rounds[i].TrainLoss) {
				t.Fatalf("parallelism %d round %d train loss differs", p, i)
			}
		}
	}
}
