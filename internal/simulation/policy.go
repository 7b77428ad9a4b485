// policy.go defines the aggregation-policy layer of the async engine: the
// rule deciding when a node that finished broadcasting iteration k merges its
// buffered neighbor payloads. The two historical extremes — the full local
// barrier and non-blocking gossip — become two implementations of a shared
// AggregationPolicy interface, joined by the semi-async middle ground the
// ROADMAP calls for:
//
//   - BarrierPolicy: wait for every live neighbor's iteration-k payload (or
//     drop notice). Zero staleness, stragglers stall their neighborhood.
//   - GossipPolicy: never wait; merge the freshest payload per neighbor
//     immediately after broadcasting. Unbounded staleness.
//   - BoundedStalenessPolicy: wait until at least k live neighbors delivered
//     the current iteration, or every live neighbor is within τ iterations
//     (the SSP-style lag bound). Staleness is bounded by τ; an adaptive mode
//     retunes τ at each topology-epoch boundary from the observed lag p95.
//   - DeadlinePolicy: a straggler-dropping barrier — wait like the barrier,
//     but aggregate no later than a simulated-time deadline derived from the
//     node's own nominal round length, dropping neighbors whose payload is
//     late (they are counted in the drop-rate metrics; their stale payload
//     can still merge on a later iteration).
//
// Policies are pure ready-predicates over scheduler state (policyView); the
// engine owns all bookkeeping, so decisions are deterministic functions of
// the event schedule and replaying a recorded schedule reproduces them
// exactly. Only DeadlinePolicy injects new schedule events (EventDeadline),
// which are recorded in traces and consumed verbatim on replay.
package simulation

import (
	"errors"
	"fmt"

	"repro/internal/trace"
)

// ErrPolicyConfig rejects invalid aggregation-policy parameters before a run
// starts; match with errors.Is.
var ErrPolicyConfig = errors.New("simulation: invalid aggregation policy")

// policyView is the scheduler state a policy's readiness decision may see:
// the waiting node's pending iteration, its live-neighbor bookkeeping, the
// current staleness bound, and whether this iteration's deadline has fired.
type policyView struct {
	// iter is the iteration the node wants to aggregate.
	iter int
	// live is the number of live neighbors in the current graph.
	live int
	// heard is how many live neighbors delivered (or dropped) their
	// iteration-iter payload: got[j] >= iter.
	heard int
	// minGot is the minimum got[j] over live neighbors, with never-heard
	// neighbors counted as -1. Meaningless when live == 0.
	minGot int
	// tau is the engine's current staleness bound (BoundedStalenessPolicy;
	// the adaptive mode retunes it at epoch boundaries).
	tau int
	// deadline reports that the node's iteration-iter deadline event fired
	// (DeadlinePolicy only).
	deadline bool
}

// AggregationPolicy decides when a broadcasting node merges its neighborhood.
// Implementations must be pure: ready may depend only on its view, so the
// decision replays deterministically from a recorded schedule.
type AggregationPolicy interface {
	// Name returns the trace-header policy name ("barrier", "gossip",
	// "bounded", "deadline" — the trace.Policy* constants).
	Name() string
	// Blocking reports whether nodes wait after broadcasting (everything but
	// gossip). Non-blocking policies aggregate immediately and keep only the
	// freshest payload per sender.
	Blocking() bool
	// ready reports whether a waiting node may aggregate now.
	ready(v policyView) bool
	// validate rejects unusable parameters with ErrPolicyConfig.
	validate() error
}

// BarrierPolicy is the full local barrier: aggregate iteration k once every
// live neighbor's iteration-k payload arrived or was known dropped. The
// default policy, and the degenerate-case twin of the synchronous engine.
type BarrierPolicy struct{}

// Name implements AggregationPolicy.
func (BarrierPolicy) Name() string { return trace.PolicyBarrier }

// Blocking implements AggregationPolicy.
func (BarrierPolicy) Blocking() bool { return true }

func (BarrierPolicy) ready(v policyView) bool { return v.heard == v.live }

func (BarrierPolicy) validate() error { return nil }

// GossipPolicy aggregates immediately after broadcasting, merging the
// freshest buffered payload per live neighbor. Never consulted for readiness
// (it never waits).
type GossipPolicy struct{}

// Name implements AggregationPolicy.
func (GossipPolicy) Name() string { return trace.PolicyGossip }

// Blocking implements AggregationPolicy.
func (GossipPolicy) Blocking() bool { return false }

func (GossipPolicy) ready(policyView) bool { return true }

func (GossipPolicy) validate() error { return nil }

// BoundedStalenessPolicy is the semi-async middle ground: a node aggregates
// iteration k once at least K live neighbors delivered their iteration-k
// payload, or once every live neighbor is within Tau iterations of k (the
// stale-synchronous-parallel lag bound: min_j got[j] >= k - Tau, never-heard
// neighbors counting as -1). Either condition suffices, so a node is never
// slower than the full barrier, and the merged staleness never exceeds Tau
// once the lag condition is the one firing.
type BoundedStalenessPolicy struct {
	// K is the fresh-payload quorum (clamped to the live-neighbor count; a
	// typical setting is half the degree).
	K int
	// Tau is the iteration-lag bound (>= 0). Tau 0 degenerates toward the
	// barrier: every neighbor must be at the current iteration.
	Tau int
	// AdaptiveTau retunes Tau at every topology-epoch boundary to
	// max(1, ceil(p95 of the lag samples observed since the last boundary)).
	// A no-op under a static topology (no epoch boundaries ever fire).
	AdaptiveTau bool
}

// Name implements AggregationPolicy.
func (BoundedStalenessPolicy) Name() string { return trace.PolicyBounded }

// Blocking implements AggregationPolicy.
func (BoundedStalenessPolicy) Blocking() bool { return true }

func (p BoundedStalenessPolicy) ready(v policyView) bool {
	if v.live == 0 {
		return true
	}
	quorum := p.K
	if quorum > v.live {
		quorum = v.live
	}
	return v.heard >= quorum || v.minGot >= v.iter-v.tau
}

func (p BoundedStalenessPolicy) validate() error {
	if p.K < 1 {
		return fmt.Errorf("%w: bounded staleness needs K >= 1, got %d", ErrPolicyConfig, p.K)
	}
	if p.Tau < 0 {
		return fmt.Errorf("%w: bounded staleness needs Tau >= 0, got %d", ErrPolicyConfig, p.Tau)
	}
	return nil
}

// DeadlinePolicy is the straggler-dropping barrier: a node waits like the
// full barrier but aggregates no later than Factor times its own nominal
// round length after broadcasting, merging whatever arrived and counting the
// missing neighbors as late drops. Deadline events are part of the recorded
// schedule, so replays reproduce the drops exactly.
type DeadlinePolicy struct {
	// Factor scales the node's per-profile nominal round duration into the
	// deadline slack (> 0; 1.5 tolerates neighbors up to 50% slower).
	Factor float64
}

// Name implements AggregationPolicy.
func (DeadlinePolicy) Name() string { return trace.PolicyDeadline }

// Blocking implements AggregationPolicy.
func (DeadlinePolicy) Blocking() bool { return true }

func (DeadlinePolicy) ready(v policyView) bool { return v.heard == v.live || v.deadline }

func (p DeadlinePolicy) validate() error {
	if p.Factor <= 0 {
		return fmt.Errorf("%w: deadline needs Factor > 0, got %g", ErrPolicyConfig, p.Factor)
	}
	return nil
}

// PolicyByName builds a policy from its trace-header name and parameters —
// the shared constructor behind CLI flags and trace-driven replay specs. An
// empty name returns nil (caller default); unknown names and unusable
// parameters are rejected with ErrPolicyConfig.
func PolicyByName(name string, k, tau int, adaptive bool, factor float64) (AggregationPolicy, error) {
	var p AggregationPolicy
	switch name {
	case "":
		return nil, nil
	case trace.PolicyBarrier:
		p = BarrierPolicy{}
	case trace.PolicyGossip:
		p = GossipPolicy{}
	case trace.PolicyBounded:
		p = BoundedStalenessPolicy{K: k, Tau: tau, AdaptiveTau: adaptive}
	case trace.PolicyDeadline:
		p = DeadlinePolicy{Factor: factor}
	default:
		return nil, fmt.Errorf("%w: unknown policy %q (want barrier, gossip, bounded, or deadline)", ErrPolicyConfig, name)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}
