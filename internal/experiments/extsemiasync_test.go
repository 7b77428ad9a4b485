package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simulation"
	"repro/internal/trace"
)

// TestPolicyHeaderRoundTrip: every policy's name and parameters must survive
// the trace header — the contract that lets SpecFromTraceHeader rebuild the
// exact run a semi-async trace describes.
func TestPolicyHeaderRoundTrip(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		policy simulation.AggregationPolicy
		want   simulation.AggregationPolicy // nil = engine default
	}{
		{nil, nil},
		{simulation.BarrierPolicy{}, nil},
		{simulation.GossipPolicy{}, simulation.GossipPolicy{}},
		{simulation.BoundedStalenessPolicy{K: 3, Tau: 2, AdaptiveTau: true}, simulation.BoundedStalenessPolicy{K: 3, Tau: 2, AdaptiveTau: true}},
		{simulation.DeadlinePolicy{Factor: 1.25}, simulation.DeadlinePolicy{Factor: 1.25}},
	}
	for _, tc := range cases {
		h := TraceHeaderForPolicy(w, AlgoJWINS, 5, 7, tc.policy, false, 0)
		got, err := policyFromTraceHeader(h)
		if err != nil {
			t.Fatalf("%+v: %v", tc.policy, err)
		}
		if got != tc.want {
			t.Fatalf("round trip of %#v: got %#v, want %#v", tc.policy, got, tc.want)
		}
	}

	h := TraceHeaderForPolicy(w, AlgoJWINS, 5, 7, nil, false, 0)
	h.Policy = "quorum"
	if _, err := policyFromTraceHeader(h); err == nil {
		t.Fatal("unknown policy name accepted")
	}
}

// TestSemiAsyncRecordReplayRoundTrip: a bounded-staleness run recorded
// through the experiments pipeline must replay with exact event parity, with
// the policy reconstructed from header metadata alone.
func TestSemiAsyncRecordReplayRoundTrip(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	policy := simulation.BoundedStalenessPolicy{K: 2, Tau: 1}
	rec := trace.NewRecorder(TraceHeaderForPolicy(w, AlgoJWINS, 5, 23, policy, false, 0))
	recorded, err := Run(RunSpec{
		Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: 5, Seed: 23,
		Async: true, Policy: policy,
		Het:      simulation.Heterogeneity{ComputeSpread: 0.6, BandwidthSpread: 0.3},
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := trace.Write(&wire, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Read(&wire)
	if err != nil {
		t.Fatal(err)
	}
	replayRes, replayed, err := ReplayTrace(decoded)
	if err != nil {
		t.Fatal(err)
	}
	diff := trace.Compare(replayed, rec.Trace())
	if !diff.InSync() || diff.TimeErrMax != 0 {
		t.Fatalf("replay out of sync: %+v", diff)
	}
	if replayRes.TotalBytes != recorded.TotalBytes || replayRes.SimTime != recorded.SimTime {
		t.Fatalf("replay ledger/time differ: (%d, %v) vs (%d, %v)",
			replayRes.TotalBytes, replayRes.SimTime, recorded.TotalBytes, recorded.SimTime)
	}
}

// TestRunSpecPolicyRequiresAsync: aggregation policies have no meaning under
// the synchronous engine; the combination is a typed rejection.
func TestRunSpecPolicyRequiresAsync(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(RunSpec{
		Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: 2, Seed: 3,
		Policy: simulation.GossipPolicy{},
	})
	if err == nil {
		t.Fatal("sync Policy accepted")
	}
}

// TestExtSemiAsyncMicro: the sweep smoke test — every (spread, policy) arm
// present and complete, the barrier arms clean, the semi-async arms showing
// the policy signature (drops or bounded lag), and the CSV carrying the
// effective-neighbor and drop-rate columns.
func TestExtSemiAsyncMicro(t *testing.T) {
	r, err := extSemiAsync(Micro, 7, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	wantArms := 5 * 2 // five policies at two spreads
	if len(r.Rows) != wantArms {
		t.Fatalf("expected %d arms, got %d", wantArms, len(r.Rows))
	}
	for i := range r.Rows {
		policy, spread := cell(t, r, i, "policy"), num(t, r, i, "spread")
		if rows, rounds := num(t, r, i, "rows"), num(t, r, i, "rounds"); rows != rounds {
			t.Fatalf("arm %s spread %.1f completed %.0f/%.0f rows", policy, spread, rows, rounds)
		}
		switch policy {
		case "barrier":
			if num(t, r, i, "drop_rate") != 0 || num(t, r, i, "late_drops") != 0 || num(t, r, i, "stale_max") != 0 {
				t.Fatalf("barrier arm not clean: %v", r.Rows[i])
			}
		case "gossip", "bounded", "bounded-adaptive":
			if num(t, r, i, "eff_neighbors") <= 0 {
				t.Fatalf("arm %s merged nothing: %v", policy, r.Rows[i])
			}
		}
	}
	csv := r.CSV()
	for _, col := range []string{"eff_neighbors", "drop_rate", "late_drops", "stale_p95"} {
		if !strings.Contains(csv, col) {
			t.Fatalf("CSV lacks %q", col)
		}
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}
