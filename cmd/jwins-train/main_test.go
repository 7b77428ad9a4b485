package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/simulation"
	"repro/internal/trace"
)

// micro starts every command line: the smallest task, so a run takes well
// under a second.
var micro = []string{"-dataset", "cifar10", "-scale", "micro"}

// TestValidateFlagsRejections: every malformed command line must be rejected
// with a typed error — ErrUnsupportedSpec for a setting the engine would
// ignore or a value out of range, ErrPolicyConfig for a policy that cannot be
// built — before anything is created or printed. Every case also asks for a
// trace, so a rejection that came after the recorder opened its file shows.
func TestValidateFlagsRejections(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want error
	}{
		{"gossip-without-async", []string{"-policy", "gossip"}, experiments.ErrUnsupportedSpec},
		{"policy-without-async", []string{"-policy", "bounded"}, experiments.ErrUnsupportedSpec},
		{"churn-without-async", []string{"-churn", "0.2"}, experiments.ErrUnsupportedSpec},
		{"spread-without-async", []string{"-compute-spread", "0.5"}, experiments.ErrUnsupportedSpec},
		{"trace-without-async", nil, experiments.ErrUnsupportedSpec},
		{"epoch-without-async", []string{"-epoch-sec", "0.5"}, experiments.ErrUnsupportedSpec},
		{"mixing-without-async", []string{"-mixing-every", "2"}, experiments.ErrUnsupportedSpec},
		{"unknown-policy", []string{"-async", "-policy", "quorum"}, simulation.ErrPolicyConfig},
		// -policy names exactly one policy: gossip combined with another is
		// not a policy the engine knows.
		{"gossip-and-policy", []string{"-async", "-policy", "gossip,bounded"}, simulation.ErrPolicyConfig},
		{"negative-stale-k", []string{"-async", "-policy", "bounded", "-stale-k", "-1"}, simulation.ErrPolicyConfig},
		{"negative-stale-tau", []string{"-async", "-policy", "bounded", "-stale-tau", "-1"}, simulation.ErrPolicyConfig},
		{"zero-deadline-factor", []string{"-async", "-policy", "deadline", "-deadline-factor", "0"}, simulation.ErrPolicyConfig},
		{"negative-deadline-factor", []string{"-async", "-policy", "deadline", "-deadline-factor", "-0.5"}, simulation.ErrPolicyConfig},
		{"negative-epoch-sec", []string{"-async", "-epoch-sec", "-1"}, experiments.ErrUnsupportedSpec},
		{"mixing-below-never", []string{"-async", "-mixing-every", "-2"}, experiments.ErrUnsupportedSpec},
		{"negative-eval-sample", []string{"-async", "-eval-sample", "-8"}, experiments.ErrUnsupportedSpec},
		// A trace header names the algorithm, not its alphas: a replay
		// would rebuild the default distribution and diverge.
		{"budget-trace", []string{"-async", "-budget", "0.2"}, experiments.ErrUnsupportedSpec},
		// Only the fleet builder knew the algorithms: the header lines and a
		// truncated trace came first.
		{"unknown-algo", []string{"-async", "-algo", "bogus"}, experiments.ErrUnsupportedSpec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run"+trace.BinaryExt)
			args := append(append(append([]string(nil), micro...), tc.args...), "-trace-out", path)
			var out strings.Builder
			if err := run(args, &out); !errors.Is(err, tc.want) {
				t.Fatalf("run(%q) = %v, want %v", args, err, tc.want)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("a rejected command line created %s (stat: %v)", path, err)
			}
			if out.Len() != 0 {
				t.Fatalf("a rejected command line printed:\n%s", out.String())
			}
		})
	}
}

// TestValidateFlagsAccepts: the combinations the engine supports must run to
// the end.
func TestValidateFlagsAccepts(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"sync-defaults", nil},
		{"async-defaults", []string{"-async"}},
		{"gossip", []string{"-async", "-policy", "gossip"}},
		{"policy-barrier", []string{"-async", "-policy", "barrier"}},
		{"policy-bounded", []string{"-async", "-policy", "bounded", "-stale-k", "3"}},
		{"policy-deadline", []string{"-async", "-policy", "deadline", "-deadline-factor", "2"}},
		{"mixing-never", []string{"-async", "-mixing-every", "-1"}},
		{"mixing-sampled", []string{"-async", "-mixing-every", "4"}},
		{"stale-k-sentinel", []string{"-async", "-policy", "bounded", "-stale-k", "0"}},
		{"eval-sample-sync", []string{"-eval-sample", "16"}},
		// The sample's window rotates every eval row, async as sync.
		{"eval-sample-rotated", []string{"-async", "-eval-sample", "16"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append(append([]string(nil), micro...), "-rounds", "3"), tc.args...)
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatalf("run(%q) = %v", args, err)
			}
			if !strings.Contains(out.String(), "final: accuracy") {
				t.Fatalf("run(%q) did not finish:\n%s", args, out.String())
			}
		})
	}
}

// TestTraceHeaderUnchanged: for every kind of command line that records a
// trace, the header jwins-train writes is byte for byte the one it wrote
// before the header moved into RunSpec.TraceHeader (literals recorded with
// the jwins-train of 08c45e3), derived epoch length and resolved bounded
// quorum included.
func TestTraceHeaderUnchanged(t *testing.T) {
	cases := []struct {
		args string
		want string
	}{
		{"-async", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -rounds 3 -seed 5", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":3,"source":"sim","policy":"barrier","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0","scale":"micro","seed":"5","topology":"static"}}`},
		{"-async -dynamic", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0.026148159999999997","scale":"micro","seed":"42","topology":"dynamic"}}`},
		{"-async -dynamic -epoch-sec 0.05", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0.05","scale":"micro","seed":"42","topology":"dynamic"}}`},
		{"-async -epoch-sec 0.05", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0.05","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -policy gossip", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"gossip","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -policy barrier", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -policy bounded", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"bounded","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0","policy_adaptive":"false","policy_k":"2","policy_tau":"2","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -dynamic -policy bounded -stale-k 3 -stale-tau 1 -adaptive-tau", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"bounded","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0.026148159999999997","policy_adaptive":"true","policy_k":"3","policy_tau":"1","scale":"micro","seed":"42","topology":"dynamic"}}`},
		{"-async -policy deadline -deadline-factor 2", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"deadline","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0","policy_deadline_factor":"2","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -eval-sample 4", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0","eval_rotate":"1","eval_sample":"4","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -dynamic -policy bounded -adaptive-tau -eval-sample 4", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"bounded","meta":{"algo":"jwins","dataset":"cifar10","epoch_sec":"0.026148159999999997","eval_rotate":"1","eval_sample":"4","policy_adaptive":"true","policy_k":"2","policy_tau":"2","scale":"micro","seed":"42","topology":"dynamic"}}`},
		{"-async -algo full-sharing -churn 0.2 -compute-spread 0.5 -mixing-every 2", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"full-sharing","dataset":"cifar10","epoch_sec":"0","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -algo choco", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"choco","dataset":"cifar10","epoch_sec":"0","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -algo random-sampling", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"random-sampling","dataset":"cifar10","epoch_sec":"0","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -algo jwins-no-wavelet", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"jwins-no-wavelet","dataset":"cifar10","epoch_sec":"0","scale":"micro","seed":"42","topology":"static"}}`},
		{"-async -dataset movielens -nodes 8", `{"format":"jwins-trace","version":1,"nodes":8,"rounds":15,"source":"sim","policy":"barrier","meta":{"algo":"jwins","dataset":"movielens","epoch_sec":"0","scale":"micro","seed":"42","topology":"static"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run"+trace.BinaryExt)
			args := append(append(append([]string(nil), micro...), strings.Fields(tc.args)...), "-trace-out", path)
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatalf("run(%q) = %v", args, err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			r, err := trace.NewStreamReader(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(r.Header())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("header moved:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
