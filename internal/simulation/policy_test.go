package simulation

import (
	"errors"
	"testing"

	"repro/internal/trace"
)

// TestPolicyReady: the readiness predicates, table-driven over the scheduler
// views the engine can present.
func TestPolicyReady(t *testing.T) {
	cases := []struct {
		name   string
		policy AggregationPolicy
		view   policyView
		want   bool
	}{
		{"barrier-complete", BarrierPolicy{}, policyView{iter: 3, live: 4, heard: 4}, true},
		{"barrier-missing-one", BarrierPolicy{}, policyView{iter: 3, live: 4, heard: 3}, false},
		{"barrier-isolated", BarrierPolicy{}, policyView{iter: 3, live: 0, heard: 0}, true},
		{"gossip-always", GossipPolicy{}, policyView{iter: 3, live: 4, heard: 0}, true},

		{"bounded-quorum-met", BoundedStalenessPolicy{K: 2, Tau: 1}, policyView{iter: 5, live: 4, heard: 2, minGot: 0, tau: 1}, true},
		{"bounded-quorum-short", BoundedStalenessPolicy{K: 2, Tau: 1}, policyView{iter: 5, live: 4, heard: 1, minGot: 0, tau: 1}, false},
		{"bounded-lag-ok", BoundedStalenessPolicy{K: 9, Tau: 2}, policyView{iter: 5, live: 4, heard: 1, minGot: 3, tau: 2}, true},
		{"bounded-lag-exceeded", BoundedStalenessPolicy{K: 9, Tau: 2}, policyView{iter: 5, live: 4, heard: 1, minGot: 2, tau: 2}, false},
		{"bounded-never-heard", BoundedStalenessPolicy{K: 9, Tau: 2}, policyView{iter: 1, live: 4, heard: 0, minGot: -1, tau: 2}, true},
		{"bounded-quorum-clamped", BoundedStalenessPolicy{K: 9, Tau: 0}, policyView{iter: 5, live: 3, heard: 3, minGot: 5, tau: 0}, true},
		{"bounded-isolated", BoundedStalenessPolicy{K: 2, Tau: 1}, policyView{iter: 5, live: 0}, true},

		{"deadline-complete", DeadlinePolicy{Factor: 1.5}, policyView{iter: 5, live: 4, heard: 4}, true},
		{"deadline-waiting", DeadlinePolicy{Factor: 1.5}, policyView{iter: 5, live: 4, heard: 2}, false},
		{"deadline-fired", DeadlinePolicy{Factor: 1.5}, policyView{iter: 5, live: 4, heard: 2, deadline: true}, true},
	}
	for _, tc := range cases {
		if got := tc.policy.ready(tc.view); got != tc.want {
			t.Errorf("%s: ready(%+v) = %v, want %v", tc.name, tc.view, got, tc.want)
		}
	}
}

// TestPolicyValidate: unusable parameters are rejected with ErrPolicyConfig.
func TestPolicyValidate(t *testing.T) {
	bad := []AggregationPolicy{
		BoundedStalenessPolicy{K: 0, Tau: 1},
		BoundedStalenessPolicy{K: 2, Tau: -1},
		DeadlinePolicy{Factor: 0},
		DeadlinePolicy{Factor: -1},
	}
	for _, p := range bad {
		if err := p.validate(); !errors.Is(err, ErrPolicyConfig) {
			t.Errorf("%#v: validate() = %v, want ErrPolicyConfig", p, err)
		}
	}
	good := []AggregationPolicy{
		BarrierPolicy{}, GossipPolicy{},
		BoundedStalenessPolicy{K: 1, Tau: 0},
		DeadlinePolicy{Factor: 1.5},
	}
	for _, p := range good {
		if err := p.validate(); err != nil {
			t.Errorf("%#v: validate() = %v, want nil", p, err)
		}
	}
}

// TestPolicyByName: the shared constructor behind CLI and replay specs.
func TestPolicyByName(t *testing.T) {
	if p, err := PolicyByName("", 0, 0, false, 0); err != nil || p != nil {
		t.Fatalf(`PolicyByName("") = (%v, %v), want (nil, nil)`, p, err)
	}
	p, err := PolicyByName(trace.PolicyBounded, 3, 2, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.(BoundedStalenessPolicy); got.K != 3 || got.Tau != 2 || !got.AdaptiveTau {
		t.Fatalf("bounded params lost: %+v", got)
	}
	for _, name := range []string{trace.PolicyBarrier, trace.PolicyGossip, trace.PolicyDeadline} {
		p, err := PolicyByName(name, 1, 1, false, 1.5)
		if err != nil || p.Name() != name {
			t.Fatalf("PolicyByName(%q) = (%v, %v)", name, p, err)
		}
	}
	if _, err := PolicyByName("quorum", 0, 0, false, 0); !errors.Is(err, ErrPolicyConfig) {
		t.Fatalf("unknown name: got %v, want ErrPolicyConfig", err)
	}
	// The parameters are validated where the policy is built, not first
	// when an engine runs it.
	for _, tc := range []struct {
		name   string
		k, tau int
		factor float64
	}{
		{trace.PolicyBounded, 0, 2, 0},
		{trace.PolicyBounded, 2, -1, 0},
		{trace.PolicyDeadline, 0, 0, 0},
		{trace.PolicyDeadline, 0, 0, -0.5},
	} {
		if _, err := PolicyByName(tc.name, tc.k, tc.tau, false, tc.factor); !errors.Is(err, ErrPolicyConfig) {
			t.Errorf("PolicyByName(%q, k=%d, tau=%d, factor=%g): got %v, want ErrPolicyConfig", tc.name, tc.k, tc.tau, tc.factor, err)
		}
	}
}

// TestPolicyConfigRejected: Run must refuse invalid policy configuration
// instead of guessing.
func TestPolicyConfigRejected(t *testing.T) {
	eng := asyncEngineFor(t, algoFull, 4, func(cfg *AsyncConfig) {
		cfg.Policy = BoundedStalenessPolicy{K: 0, Tau: 2}
	})
	if _, err := eng.Run(); !errors.Is(err, ErrPolicyConfig) {
		t.Fatalf("invalid bounded params: got %v, want ErrPolicyConfig", err)
	}
}

// TestPolicyBehavior: the observable signatures of each policy. The barrier
// in the homogeneous no-churn limit merges every neighbor with nothing late;
// the deadline policy under heavy stragglers fires before the slowest
// neighbors deliver (late drops, drop rate > 0); bounded staleness still
// completes every iteration row.
func TestPolicyBehavior(t *testing.T) {
	clean := runAsync(t, algoFull, 8, nil)
	if clean.DropRate != 0 || clean.LateDrops != 0 {
		t.Fatalf("barrier run reports drops: rate %v, late %d", clean.DropRate, clean.LateDrops)
	}
	if clean.EffNeighborsMean != 4 {
		t.Fatalf("barrier on a degree-4 graph merged %.2f neighbors per aggregation", clean.EffNeighborsMean)
	}

	het := Heterogeneity{ComputeSpread: 1.2, BandwidthSpread: 0.4, Seed: 7}
	deadline := runAsync(t, algoFull, 12, func(cfg *AsyncConfig) {
		cfg.Policy = DeadlinePolicy{Factor: 1.1}
		cfg.Het = het
	})
	if deadline.LateDrops <= 0 || deadline.DropRate <= 0 {
		t.Fatalf("deadline under stragglers dropped nothing: rate %v, late %d", deadline.DropRate, deadline.LateDrops)
	}
	if deadline.EffNeighborsMean >= 4 {
		t.Fatalf("deadline drops should lower effective neighbors below the degree, got %.2f", deadline.EffNeighborsMean)
	}
	if len(deadline.Rounds) != 12 {
		t.Fatalf("deadline run emitted %d/12 rows", len(deadline.Rounds))
	}

	bounded := runAsync(t, algoFull, 12, func(cfg *AsyncConfig) {
		cfg.Policy = BoundedStalenessPolicy{K: 2, Tau: 2}
		cfg.Het = het
	})
	if len(bounded.Rounds) != 12 {
		t.Fatalf("bounded run emitted %d/12 rows", len(bounded.Rounds))
	}
	if bounded.StaleMax <= 0 {
		t.Fatal("bounded staleness under stragglers observed no lag")
	}
	// Bounded staleness may never be slower than the full barrier: the
	// barrier condition is one of its disjuncts.
	barrier := runAsync(t, algoFull, 12, func(cfg *AsyncConfig) {
		cfg.Het = het
	})
	if bounded.SimTime > barrier.SimTime {
		t.Fatalf("bounded run slower than the full barrier: %v vs %v", bounded.SimTime, barrier.SimTime)
	}
}

// TestReplayPolicyMismatch: a trace recorded under one policy must not replay
// under another — name and parameters are both validated.
func TestReplayPolicyMismatch(t *testing.T) {
	recorded, _ := recordedRun(t, 5, func(cfg *AsyncConfig) {
		cfg.Policy = BoundedStalenessPolicy{K: 2, Tau: 2}
	})
	rp, err := trace.NewReplayer(recorded)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong policy family.
	eng := asyncEngineFor(t, algoJWINS, 5, func(cfg *AsyncConfig) {
		cfg.Replay = rp
	})
	if _, err := eng.Run(); !errors.Is(err, ErrReplayConfig) {
		t.Fatalf("barrier engine accepted a bounded trace: %v", err)
	}

	// Right family, wrong parameter.
	rp2, err := trace.NewReplayer(recorded)
	if err != nil {
		t.Fatal(err)
	}
	eng = asyncEngineFor(t, algoJWINS, 5, func(cfg *AsyncConfig) {
		cfg.Policy = BoundedStalenessPolicy{K: 2, Tau: 3}
		cfg.Replay = rp2
	})
	if _, err := eng.Run(); !errors.Is(err, ErrReplayConfig) {
		t.Fatalf("tau mismatch accepted: %v", err)
	}
}
