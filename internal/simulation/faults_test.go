package simulation

import (
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/vec"
)

// runWithFaults reruns the standard 8-node task with message drops.
func runWithFaults(t *testing.T, kind algo, rounds int, dropProb float64) *Result {
	t.Helper()
	const n = 8
	ds, parts := buildTask(t, n, 42)
	nodes := buildNodes(t, kind, ds, parts, 7)
	g, err := topology.Regular(n, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{
		Nodes:    nodes,
		Topology: topology.NewStatic(g),
		TestSet:  ds,
		Config: Config{
			Rounds: rounds, EvalEvery: rounds, Parallelism: 2,
			DropProb: dropProb, FaultSeed: 1,
		},
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJWINSSurvivesMessageDrops: with 20% message loss, partial averaging
// renormalizes over the senders that arrived, so learning still works.
func TestJWINSSurvivesMessageDrops(t *testing.T) {
	res := runWithFaults(t, algoJWINS, 30, 0.2)
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("JWINS with 20%% drops reached only %.2f accuracy", res.FinalAccuracy)
	}
}

// TestFullSharingSurvivesChurn: with nodes leaving and rejoining mid-run,
// D-PSGD still converges (the paper's "flexible to nodes leaving/joining").
func TestFullSharingSurvivesChurn(t *testing.T) {
	res := runAsync(t, algoFull, 30, func(cfg *AsyncConfig) {
		cfg.Churn = GenerateChurn(8, 0.15, 0.05, 0.5, 0.2, 41)
	})
	if len(res.Rounds) != 30 {
		t.Fatalf("completed %d/30 rows", len(res.Rounds))
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("full-sharing with 15%% churn reached only %.2f accuracy", res.FinalAccuracy)
	}
}

// TestJWINSSurvivesChurnAndDrops: both faults at once.
func TestJWINSSurvivesChurnAndDrops(t *testing.T) {
	res := runAsync(t, algoJWINS, 30, func(cfg *AsyncConfig) {
		cfg.Churn = GenerateChurn(8, 0.1, 0.05, 0.5, 0.2, 43)
		cfg.DropProb = 0.1
		cfg.FaultSeed = 1
	})
	if len(res.Rounds) != 30 {
		t.Fatalf("completed %d/30 rows", len(res.Rounds))
	}
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("JWINS with combined faults reached only %.2f accuracy", res.FinalAccuracy)
	}
}

// TestChocoDegradesUnderChurn documents the contrast the paper draws:
// CHOCO's error-feedback replicas desynchronize when messages are lost, so
// it should do clearly worse than JWINS under the same fault load.
func TestChocoDegradesUnderChurn(t *testing.T) {
	choco := runWithFaults(t, algoChoco, 30, 0.25)
	jwins := runWithFaults(t, algoJWINS, 30, 0.25)
	t.Logf("25%% drops: choco %.2f vs jwins %.2f", choco.FinalAccuracy, jwins.FinalAccuracy)
	if choco.FinalAccuracy > jwins.FinalAccuracy+0.05 {
		t.Fatalf("expected CHOCO (%.2f) to degrade at least as much as JWINS (%.2f) under drops",
			choco.FinalAccuracy, jwins.FinalAccuracy)
	}
}

// TestFaultsAreDeterministic: same fault seed, same result.
func TestFaultsAreDeterministic(t *testing.T) {
	a := runWithFaults(t, algoJWINS, 6, 0.3)
	b := runWithFaults(t, algoJWINS, 6, 0.3)
	if a.TotalBytes != b.TotalBytes {
		t.Fatalf("fault runs differ: %d vs %d bytes", a.TotalBytes, b.TotalBytes)
	}
}

// TestDropsReduceBytes: dropped messages are paid by the sender, but nodes
// that drop out send nothing while away, so heavy churn must reduce total
// traffic.
func TestDropsReduceBytes(t *testing.T) {
	clean := runAsync(t, algoFull, 10, nil)
	churned := runAsync(t, algoFull, 10, func(cfg *AsyncConfig) {
		cfg.Churn = GenerateChurn(8, 0.5, 0.05, 0.2, 0.1, 31)
	})
	if len(churned.Rounds) != len(clean.Rounds) {
		t.Fatalf("churned run completed %d rows, clean %d", len(churned.Rounds), len(clean.Rounds))
	}
	t.Logf("bytes: clean %d, churned %d", clean.TotalBytes, churned.TotalBytes)
	if churned.TotalBytes >= clean.TotalBytes {
		t.Fatalf("churned run sent %d bytes >= clean %d", churned.TotalBytes, clean.TotalBytes)
	}
}

// TestAsyncFaultMatrix covers node absence next to the drop tests above:
// churn traces, straggler tails, and in-flight drops, table
// driven across algorithms and severities. Each scenario must finish its full
// iteration budget and stay above a floor accuracy (or, for the adversarial
// CHOCO rows, is only required to complete without NaNs — the degradation
// contrast itself is asserted by TestAsyncChocoVsJWINSUnderChurn).
func TestAsyncFaultMatrix(t *testing.T) {
	const rounds = 30
	cases := []struct {
		name     string
		kind     algo
		churn    float64 // fraction of nodes cycling out and back
		compute  float64 // lognormal sigma on per-step compute time
		drop     float64 // per-message drop probability
		policy   AggregationPolicy
		minAcc   float64 // 0 = only require completion
		wantRows int
	}{
		{name: "jwins/light-churn", kind: algoJWINS, churn: 0.15, minAcc: 0.5, wantRows: rounds},
		{name: "jwins/heavy-churn", kind: algoJWINS, churn: 0.4, minAcc: 0.45, wantRows: rounds},
		{name: "jwins/stragglers", kind: algoJWINS, compute: 1.2, minAcc: 0.5, wantRows: rounds},
		{name: "jwins/churn+stragglers+drops", kind: algoJWINS, churn: 0.25, compute: 0.8, drop: 0.1, minAcc: 0.45, wantRows: rounds},
		{name: "full/churn", kind: algoFull, churn: 0.25, minAcc: 0.5, wantRows: rounds},
		{name: "full/gossip-stragglers", kind: algoFull, compute: 0.8, policy: GossipPolicy{}, minAcc: 0.45, wantRows: rounds},
		{name: "choco/churn-completes", kind: algoChoco, churn: 0.25, minAcc: 0, wantRows: rounds},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := runAsync(t, tc.kind, rounds, func(cfg *AsyncConfig) {
				if tc.churn > 0 {
					cfg.Churn = GenerateChurn(8, tc.churn, 0.05, 0.5, 0.2, 17)
				}
				if tc.compute > 0 {
					cfg.Het = Heterogeneity{ComputeSpread: tc.compute, Seed: 19}
				}
				cfg.DropProb = tc.drop
				cfg.FaultSeed = 23
				cfg.Policy = tc.policy
			})
			if len(res.Rounds) != tc.wantRows {
				t.Fatalf("completed %d/%d rows", len(res.Rounds), tc.wantRows)
			}
			if math.IsNaN(res.FinalAccuracy) {
				t.Fatal("run produced NaN accuracy")
			}
			if tc.minAcc > 0 && res.FinalAccuracy < tc.minAcc {
				t.Fatalf("accuracy %.2f below floor %.2f", res.FinalAccuracy, tc.minAcc)
			}
		})
	}
}

// TestAsyncChocoVsJWINSUnderChurn documents the paper's flexibility contrast
// under the event-driven scheduler: when nodes leave and rejoin, CHOCO's
// error-feedback replicas desynchronize while JWINS's partial-sharing
// averaging renormalizes, so CHOCO must not come out meaningfully ahead.
func TestAsyncChocoVsJWINSUnderChurn(t *testing.T) {
	churn := func(cfg *AsyncConfig) {
		cfg.Churn = GenerateChurn(8, 0.33, 0.05, 0.5, 0.25, 29)
	}
	jwins := runAsync(t, algoJWINS, 30, churn)
	choco := runAsync(t, algoChoco, 30, churn)
	t.Logf("async churn: jwins %.2f vs choco %.2f", jwins.FinalAccuracy, choco.FinalAccuracy)
	if choco.FinalAccuracy > jwins.FinalAccuracy+0.05 {
		t.Fatalf("expected CHOCO (%.2f) to degrade at least as much as JWINS (%.2f) under churn",
			choco.FinalAccuracy, jwins.FinalAccuracy)
	}
}
