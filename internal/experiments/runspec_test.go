package experiments

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/simulation"
	"repro/internal/trace"
)

// TestTraceHeaderReplays: a run recorded under the header RunSpec.TraceHeader
// writes, serialized and read back, replays from that header alone in step
// with the recording — same events and times, byte ledger, simulated time
// and rows — under every policy, every topology mode (static, static with
// epochs, dynamic at the default and at an explicit epoch length), exact and
// sampled evaluation, with stragglers and churn, on a paper task and on
// ext-scale's task.
func TestTraceHeaderReplays(t *testing.T) {
	bounded := simulation.BoundedStalenessPolicy{K: 2, Tau: 1}
	cases := []struct {
		name    string
		dataset string // "extscale" for ScaleWorkload
		nodes   int
		seed    uint64
		spec    RunSpec
	}{
		{"barrier", "cifar10", 0, 19, RunSpec{}},
		{"gossip", "cifar10", 0, 19, RunSpec{Policy: simulation.GossipPolicy{}, Het: simulation.Heterogeneity{ComputeSpread: 0.5}}},
		{"bounded-het", "cifar10", 0, 23, RunSpec{Policy: bounded,
			Het: simulation.Heterogeneity{ComputeSpread: 0.6, BandwidthSpread: 0.3}}},
		{"bounded-adaptive-dynamic", "cifar10", 0, 19, RunSpec{Dynamic: true,
			Policy: simulation.BoundedStalenessPolicy{K: 2, Tau: 2, AdaptiveTau: true},
			Het:    simulation.Heterogeneity{ComputeSpread: 0.5}}},
		{"deadline", "cifar10", 0, 19, RunSpec{Policy: simulation.DeadlinePolicy{Factor: 1.25},
			Het: simulation.Heterogeneity{ComputeSpread: 0.6}}},
		{"barrier-explicit", "cifar10", 0, 19, RunSpec{Policy: simulation.BarrierPolicy{}}},
		{"static-epochs", "cifar10", 0, 19, RunSpec{EpochSec: 0.01}},
		{"dynamic-default-epoch-churn", "cifar10", 0, 19, RunSpec{Dynamic: true, ChurnFraction: 0.25}},
		{"dynamic-explicit-epoch", "cifar10", 0, 19, RunSpec{Dynamic: true, EpochSec: 0.05}},
		{"sampled-eval", "cifar10", 0, 19, RunSpec{EvalSample: 4, ChurnFraction: 0.25}},
		{"het-churn", "cifar10", 0, 42, RunSpec{ChurnFraction: 0.2,
			Het: simulation.Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.3, LatencySpread: 0.2}}},
		{"extscale-churn", "extscale", 64, 5, RunSpec{EvalSample: 8, ChurnFraction: 0.2,
			Het: simulation.Heterogeneity{ComputeSpread: 0.3}}},
		{"extscale-dyntopo", "extscale", 64, 5, RunSpec{EvalSample: 8, Dynamic: true, MixingEvery: 2,
			Het: simulation.Heterogeneity{ComputeSpread: 0.3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			var err error
			if tc.dataset == "extscale" {
				spec.Workload, err = ScaleWorkload(tc.nodes, tc.seed)
			} else {
				spec.Workload, err = NewWorkload(tc.dataset, Micro, tc.nodes, tc.seed)
				spec.Rounds = 5
			}
			if err != nil {
				t.Fatal(err)
			}
			spec.Algo, spec.Seed, spec.Async = AlgoSpec{Kind: AlgoJWINS}, tc.seed, true
			h, err := spec.TraceHeader()
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder(h)
			spec.Recorder = rec
			recorded, err := Run(spec)
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
			if diff := trace.Compare(replayed, rec.Trace()); !diff.InSync() || diff.TimeErrMax != 0 {
				t.Fatalf("replay out of sync: %+v", diff)
			}
			if replayRes.TotalBytes != recorded.TotalBytes || replayRes.SimTime != recorded.SimTime {
				t.Fatalf("replay ledger/time differ: (%d, %v) vs (%d, %v)",
					replayRes.TotalBytes, replayRes.SimTime, recorded.TotalBytes, recorded.SimTime)
			}
			if len(recorded.Rounds) != spec.rounds() {
				t.Fatalf("recording emitted %d rows, want %d", len(recorded.Rounds), spec.rounds())
			}
			// The header does not carry MixingEvery (it never shapes the
			// schedule), so the replay computes the gap at every epoch.
			if spec.MixingEvery != 0 {
				for _, res := range []*simulation.Result{recorded, replayRes} {
					for i := range res.Rounds {
						res.Rounds[i].SpectralGap = 0
					}
				}
			}
			if rowSum(recorded) != rowSum(replayRes) {
				t.Fatal("replayed rows differ from the recorded ones")
			}
		})
	}
}

// rowSum hashes every field of every row of res, floats by their bits.
func rowSum(res *simulation.Result) [sha256.Size]byte {
	h := sha256.New()
	hashResult(h, res)
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestTraceHeaderRejectsUnreplayable: a header names the algorithm but not
// its knobs, so TraceHeader refuses a spec whose algorithm does not run at
// the defaults SpecFromTraceHeader rebuilds — a JWINS budget, a non-default
// codec — and accepts every spelling of the defaults, jwins-train's
// included. A header rebuilds the workload as NewWorkload builds it from one
// seed, so a workload built from another seed or shard count, or given
// another degree, is refused too. Synchronous and invalid specs have no
// header either.
func TestTraceHeaderRejectsUnreplayable(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	jw := core.DefaultJWINSConfig()
	jw.Wavelet, jw.Levels = "sym2", 4
	budget := core.DefaultJWINSConfig()
	if budget.Alphas, err = core.BudgetAlphas(0.2); err != nil {
		t.Fatal(err)
	}
	coif := core.DefaultJWINSConfig()
	coif.Wavelet = "coif1"
	accept := []AlgoSpec{
		{Kind: AlgoJWINS},
		{Kind: AlgoJWINS, JWINS: &jw},
		{Kind: AlgoJWINS, Codec: codec.PlaneFlate32{}},
		{Kind: AlgoJWINSNoCutoff, JWINS: &jw},
		{Kind: AlgoChoco, Choco: &core.ChocoConfig{Fraction: 0.2, Gamma: 0.6}},
		{Kind: AlgoRandom, RandomFraction: 0.37},
		// Knobs the kind never reads do not change the fleet.
		{Kind: AlgoFull, JWINS: &budget},
	}
	for _, a := range accept {
		if _, err := (RunSpec{Workload: w, Algo: a, Seed: 1, Async: true}).TraceHeader(); err != nil {
			t.Errorf("%s %+v: %v", a.Kind, a, err)
		}
	}
	reject := []AlgoSpec{
		{Kind: AlgoJWINS, JWINS: &budget},
		{Kind: AlgoJWINS, JWINS: &coif},
		{Kind: AlgoJWINS, Codec: codec.Raw32{}},
		{Kind: AlgoChoco, Choco: &core.ChocoConfig{Fraction: 0.1, Gamma: 0.1}},
		{Kind: AlgoChoco, Choco: &core.ChocoConfig{Fraction: 0.2, Gamma: 0.6, FloatCodec: codec.Raw32{}}},
		{Kind: AlgoRandom, RandomFraction: 0.2},
	}
	for _, a := range reject {
		if _, err := (RunSpec{Workload: w, Algo: a, Seed: 1, Async: true}).TraceHeader(); !errors.Is(err, ErrUnsupportedSpec) {
			t.Errorf("%s %+v: got %v, want ErrUnsupportedSpec", a.Kind, a, err)
		}
	}
	// Replay rebuilds cifar10 at 2 shards a node and at degreeFor(nodes).
	shards4, err := NewCIFAR10Shards(Micro, 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	degree3, err := NewWorkload("cifar10", Micro, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	degree3.Degree = 3
	for name, spec := range map[string]RunSpec{
		"sync":           {Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Seed: 1},
		"negative-epoch": {Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Seed: 1, Async: true, EpochSec: -1},
		// w was built from seed 1: a header carrying seed 2 would replay on
		// another dataset and partition.
		"other-seed": {Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Seed: 2, Async: true},
		"4-shards":   {Workload: shards4, Algo: AlgoSpec{Kind: AlgoJWINS}, Seed: 1, Async: true},
		"degree-3":   {Workload: degree3, Algo: AlgoSpec{Kind: AlgoJWINS}, Seed: 1, Async: true},
	} {
		if _, err := spec.TraceHeader(); !errors.Is(err, ErrUnsupportedSpec) {
			t.Errorf("%s: got %v, want ErrUnsupportedSpec", name, err)
		}
	}
}

// TestRunSpecValidate: every async-only setting is rejected on a
// synchronous run instead of being ignored, out-of-range values are
// rejected on both engines, and Run refuses what Validate refuses before it
// builds anything.
func TestRunSpecValidate(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := RunSpec{Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: 2, Seed: 3}
	reject := map[string]func(*RunSpec){
		"sync-het":            func(s *RunSpec) { s.Het.ComputeSpread = 0.9 },
		"sync-het-seed":       func(s *RunSpec) { s.Het.Seed = 5 },
		"sync-churn":          func(s *RunSpec) { s.ChurnFraction = 0.5 },
		"sync-mixing":         func(s *RunSpec) { s.MixingEvery = 3 },
		"sync-mixing-never":   func(s *RunSpec) { s.MixingEvery = -1 },
		"sync-policy":         func(s *RunSpec) { s.Policy = simulation.BarrierPolicy{} },
		"sync-epoch":          func(s *RunSpec) { s.EpochSec = 0.5 },
		"sync-recorder":       func(s *RunSpec) { s.Recorder = trace.NewRecorder(trace.Header{}) },
		"sync-replay":         func(s *RunSpec) { s.Replay = &trace.Replayer{} },
		"sync-telemetry":      func(s *RunSpec) { s.Telemetry = simulation.NewTelemetry() },
		"negative-rounds":     func(s *RunSpec) { s.Rounds = -3 },
		"negative-epoch":      func(s *RunSpec) { s.Async, s.EpochSec = true, -1 },
		"negative-eval":       func(s *RunSpec) { s.EvalSample = -8 },
		"negative-eval-async": func(s *RunSpec) { s.Async, s.EvalSample = true, -8 },
		"mixing-below-never":  func(s *RunSpec) { s.Async, s.MixingEvery = true, -2 },
		"unknown-algo":        func(s *RunSpec) { s.Algo.Kind = "bogus" },
		"unknown-algo-async":  func(s *RunSpec) { s.Async, s.Algo.Kind = true, "bogus" },
	}
	for name, mut := range reject {
		spec := base
		mut(&spec)
		if err := spec.Validate(); !errors.Is(err, ErrUnsupportedSpec) {
			t.Errorf("%s: Validate() = %v, want ErrUnsupportedSpec", name, err)
		}
		if _, err := Run(spec); !errors.Is(err, ErrUnsupportedSpec) {
			t.Errorf("%s: Run() = %v, want ErrUnsupportedSpec", name, err)
		}
	}
	accept := map[string]func(*RunSpec){
		"sync":               func(s *RunSpec) {},
		"sync-dynamic":       func(s *RunSpec) { s.Dynamic = true },
		"sync-eval-sample":   func(s *RunSpec) { s.EvalSample = 4 },
		"async-everything":   func(s *RunSpec) { s.Async, s.Het.ComputeSpread, s.ChurnFraction, s.MixingEvery = true, 0.9, 0.5, 3 },
		"async-mixing-never": func(s *RunSpec) { s.Async, s.MixingEvery = true, -1 },
		"async-epochs":       func(s *RunSpec) { s.Async, s.EpochSec = true, 0.5 },
	}
	for name, mut := range accept {
		spec := base
		mut(&spec)
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", name, err)
		}
	}
}
