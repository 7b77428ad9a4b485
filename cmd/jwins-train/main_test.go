package main

import (
	"errors"
	"testing"
)

// validBase is an async flag set every rule-specific mutation starts from.
func validBase() trainFlags {
	return trainFlags{Async: true, StaleTau: 2, DeadlineFactor: 1.5}
}

// TestValidateFlagsRejections: every malformed combination must be rejected
// with the typed errBadFlag, so main can distinguish usage errors from run
// failures.
func TestValidateFlagsRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*trainFlags)
	}{
		{"gossip-without-async", func(f *trainFlags) { f.Async = false; f.Policy = "gossip" }},
		{"policy-without-async", func(f *trainFlags) { f.Async = false; f.Policy = "bounded" }},
		{"churn-without-async", func(f *trainFlags) { f.Async = false; f.Churn = 0.2 }},
		{"spread-without-async", func(f *trainFlags) { f.Async = false; f.ComputeSpread = 0.5 }},
		{"trace-without-async", func(f *trainFlags) { f.Async = false; f.TraceOut = "x.jtb" }},
		{"epoch-without-async", func(f *trainFlags) { f.Async = false; f.EpochSec = 0.5 }},
		{"mixing-without-async", func(f *trainFlags) { f.Async = false; f.MixingEvery = 2 }},
		{"unknown-policy", func(f *trainFlags) { f.Policy = "quorum" }},
		// -policy names exactly one policy: gossip combined with another is
		// not a policy the engine knows.
		{"gossip-and-policy", func(f *trainFlags) { f.Policy = "gossip,bounded" }},
		{"negative-stale-k", func(f *trainFlags) { f.Policy = "bounded"; f.StaleK = -1 }},
		{"negative-stale-tau", func(f *trainFlags) { f.Policy = "bounded"; f.StaleTau = -1 }},
		{"zero-deadline-factor", func(f *trainFlags) { f.Policy = "deadline"; f.DeadlineFactor = 0 }},
		{"negative-deadline-factor", func(f *trainFlags) { f.Policy = "deadline"; f.DeadlineFactor = -0.5 }},
		{"negative-epoch-sec", func(f *trainFlags) { f.EpochSec = -1 }},
		{"mixing-below-never", func(f *trainFlags) { f.MixingEvery = -2 }},
		{"negative-eval-sample", func(f *trainFlags) { f.EvalSample = -8 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validBase()
			tc.mut(&f)
			if err := f.validate(); !errors.Is(err, errBadFlag) {
				t.Fatalf("validate(%+v) = %v, want errBadFlag", f, err)
			}
		})
	}
}

// TestValidateFlagsAccepts: the combinations the engine supports must pass.
func TestValidateFlagsAccepts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*trainFlags)
	}{
		{"sync-defaults", func(f *trainFlags) { f.Async = false }},
		{"async-defaults", func(f *trainFlags) {}},
		{"gossip", func(f *trainFlags) { f.Policy = "gossip" }},
		{"policy-barrier", func(f *trainFlags) { f.Policy = "barrier" }},
		{"policy-bounded", func(f *trainFlags) { f.Policy = "bounded"; f.StaleK = 3 }},
		{"policy-deadline", func(f *trainFlags) { f.Policy = "deadline"; f.DeadlineFactor = 2 }},
		{"mixing-never", func(f *trainFlags) { f.MixingEvery = -1 }},
		{"mixing-sampled", func(f *trainFlags) { f.MixingEvery = 4 }},
		{"stale-k-sentinel", func(f *trainFlags) { f.Policy = "bounded"; f.StaleK = 0 }},
		{"eval-sample-sync", func(f *trainFlags) { f.Async = false; f.EvalSample = 16 }},
		// The sample's window rotates every eval row, async as sync.
		{"eval-sample-rotated", func(f *trainFlags) { f.EvalSample = 16 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validBase()
			tc.mut(&f)
			if err := f.validate(); err != nil {
				t.Fatalf("validate(%+v) = %v, want nil", f, err)
			}
		})
	}
}
