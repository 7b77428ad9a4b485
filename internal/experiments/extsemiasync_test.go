package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simulation"
	"repro/internal/trace"
)

// TestPolicyHeaderRoundTrip: every policy's name and parameters must survive
// the trace header — the contract that lets SpecFromTraceHeader rebuild the
// exact run a semi-async trace describes — and the rebuilt policy is
// validated where it is built.
func TestPolicyHeaderRoundTrip(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	header := func(policy simulation.AggregationPolicy) trace.Header {
		t.Helper()
		h, err := RunSpec{Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: 5, Seed: 7, Async: true, Policy: policy}.TraceHeader()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	cases := []struct {
		policy simulation.AggregationPolicy
		want   simulation.AggregationPolicy
	}{
		{nil, simulation.BarrierPolicy{}},
		{simulation.BarrierPolicy{}, simulation.BarrierPolicy{}},
		{simulation.GossipPolicy{}, simulation.GossipPolicy{}},
		{simulation.BoundedStalenessPolicy{K: 3, Tau: 2, AdaptiveTau: true}, simulation.BoundedStalenessPolicy{K: 3, Tau: 2, AdaptiveTau: true}},
		{simulation.DeadlinePolicy{Factor: 1.25}, simulation.DeadlinePolicy{Factor: 1.25}},
	}
	for _, tc := range cases {
		spec, err := SpecFromTraceHeader(header(tc.policy))
		if err != nil {
			t.Fatalf("%+v: %v", tc.policy, err)
		}
		if spec.Policy != tc.want {
			t.Fatalf("round trip of %#v: got %#v, want %#v", tc.policy, spec.Policy, tc.want)
		}
	}

	h := header(nil)
	h.Policy = "quorum"
	if _, err := SpecFromTraceHeader(h); !errors.Is(err, simulation.ErrPolicyConfig) {
		t.Fatalf("unknown policy name: got %v, want ErrPolicyConfig", err)
	}
	h = header(simulation.BoundedStalenessPolicy{K: 3, Tau: 2})
	h.Meta["policy_k"] = "0"
	if _, err := SpecFromTraceHeader(h); !errors.Is(err, simulation.ErrPolicyConfig) {
		t.Fatalf("bounded K=0: got %v, want ErrPolicyConfig", err)
	}
	h.Meta["policy_k"] = "three"
	if _, err := SpecFromTraceHeader(h); err == nil {
		t.Fatal("malformed policy_k accepted")
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
