package simulation

import (
	"errors"
	"math"
	"testing"

	"repro/internal/trace"
)

// TestEvalSamplerRotationCoverage: with sample size s, every node must be
// visited within ceil(n/s) consecutive eval rows (one full cycle), each row's
// subset must be s distinct nodes, and the schedule must be a pure function
// of the config — a fresh sampler replays it exactly.
func TestEvalSamplerRotationCoverage(t *testing.T) {
	cfg := Config{EvalSample: 3, EvalEvery: 2, EvalSeed: 5}
	cfg.setDefaults()
	const n = 10
	s := newEvalSampler(n, cfg)
	if s == nil {
		t.Fatal("sampler unexpectedly off")
	}
	budget := (n + cfg.EvalSample - 1) / cfg.EvalSample // eval rows per full cycle

	replay := newEvalSampler(n, cfg)
	seen := make(map[int]bool)
	for ord := 0; ord < budget; ord++ {
		round := ord * cfg.EvalEvery // eval rows land every EvalEvery rounds
		subset := s.subsetFor(round)
		if len(subset) != cfg.EvalSample {
			t.Fatalf("row %d: subset size %d, want %d", ord, len(subset), cfg.EvalSample)
		}
		dup := make(map[int]bool)
		for _, idx := range subset {
			if idx < 0 || idx >= n {
				t.Fatalf("row %d: node %d out of range", ord, idx)
			}
			if dup[idx] {
				t.Fatalf("row %d: node %d sampled twice", ord, idx)
			}
			dup[idx] = true
			seen[idx] = true
		}
		again := replay.subsetFor(round)
		for i := range subset {
			if subset[i] != again[i] {
				t.Fatalf("row %d: fresh sampler diverged: %v vs %v", ord, subset, again)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("one cycle (%d eval rows) visited %d/%d nodes", budget, len(seen), n)
	}
}

// TestEvalSamplerOffBoundaries: sampling must stay off when the subset would
// not actually be a proper subset.
func TestEvalSamplerOffBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sample int
	}{
		{"zero", 0},
		{"equal-to-fleet", 8},
		{"above-fleet", 12},
	} {
		cfg := Config{EvalSample: tc.sample, EvalEvery: 1, EvalSeed: 1}
		cfg.setDefaults()
		if s := newEvalSampler(8, cfg); s != nil {
			t.Fatalf("%s: sampler on for EvalSample=%d over 8 nodes", tc.name, tc.sample)
		}
	}
	if got := (*evalSampler)(nil).subsetFor(0); got != nil {
		t.Fatalf("nil sampler returned subset %v", got)
	}
}

// TestSampledEvalOfflineNaN: subset entries that are offline contribute NaN
// and fall out of the mean; a fully offline subset yields NaN row metrics
// instead of scoring dead nodes' stale models.
func TestSampledEvalOfflineNaN(t *testing.T) {
	const n = 8
	ds, parts := buildTask(t, n, 42)
	nodes := buildNodes(t, algoFull, ds, parts, 7)
	pool := newComputePool(1)
	defer pool.close()

	subset := []int{0, 1, 2}
	live := make([]bool, n)

	loss, acc, _ := evaluateNodesOn(pool, nodes, ds, subset, live)
	if !math.IsNaN(loss) || !math.IsNaN(acc) {
		t.Fatalf("all-offline subset produced (%v, %v), want NaN", loss, acc)
	}

	live[1] = true
	loss, acc, _ = evaluateNodesOn(pool, nodes, ds, subset, live)
	wantLoss, wantAcc, _ := evaluateNodesOn(pool, nodes, ds, []int{1}, nil)
	if loss != wantLoss || acc != wantAcc {
		t.Fatalf("single live node: got (%v, %v), want node 1 alone (%v, %v)", loss, acc, wantLoss, wantAcc)
	}
}

// TestSampledEvalWithinToleranceOfExact: on the micro test task, the sampled
// estimate must track exact evaluation. The bound is loose — a 3-node sample
// of an 8-node fleet is noisy by construction — but it catches systematic
// bias (always scoring the same lucky subset, never visiting stragglers).
func TestSampledEvalWithinToleranceOfExact(t *testing.T) {
	const rounds = 12
	run := func(sample int) *Result {
		eng := asyncEngineFor(t, algoJWINS, rounds, func(cfg *AsyncConfig) {
			cfg.EvalEvery = 4
			cfg.EvalSample = sample
			cfg.EvalSeed = 9
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact := run(0)
	sampled := run(3)
	if math.Abs(exact.FinalAccuracy-sampled.FinalAccuracy) > 0.15 {
		t.Fatalf("sampled final accuracy %.4f drifted from exact %.4f beyond tolerance 0.15",
			sampled.FinalAccuracy, exact.FinalAccuracy)
	}
	if math.Abs(exact.FinalLoss-sampled.FinalLoss) > 0.5*(1+math.Abs(exact.FinalLoss)) {
		t.Fatalf("sampled final loss %.4f drifted from exact %.4f", sampled.FinalLoss, exact.FinalLoss)
	}
}

// TestReplayValidatesEvalSchedule: a trace recorded under sampled evaluation
// carries the schedule in its header; replaying under a different schedule
// must fail with ErrReplayConfig, and replaying under the recorded one must
// reproduce the rows exactly. The window advances every eval row, so a
// header that says eval_rotate is anything but 1 is a schedule no engine
// runs. Traces without eval meta (recorded before the sampler existed) skip
// the check and still replay row for row.
func TestReplayValidatesEvalSchedule(t *testing.T) {
	const rounds = 8
	run := func(sample int, mut func(*AsyncConfig)) (*Result, error) {
		return asyncEngineFor(t, algoJWINS, rounds, func(cfg *AsyncConfig) {
			cfg.EvalEvery = 2
			cfg.EvalSample = sample
			cfg.EvalSeed = 21
			mut(cfg)
		}).Run()
	}
	recordWith := func(meta map[string]string, sample int) (*trace.Trace, *Result) {
		rec := trace.NewRecorder(trace.Header{
			Nodes: 8, Rounds: rounds, Source: trace.SourceSim, Policy: trace.PolicyBarrier, Meta: meta,
		})
		res, err := run(sample, func(cfg *AsyncConfig) { cfg.Record = rec })
		if err != nil {
			t.Fatal(err)
		}
		return rec.Trace(), res
	}
	replay := func(tr *trace.Trace, sample int) (*Result, error) {
		rp, err := trace.NewReplayer(tr)
		if err != nil {
			t.Fatal(err)
		}
		return run(sample, func(cfg *AsyncConfig) { cfg.Replay = rp })
	}
	sameRows := func(name string, tr *trace.Trace, sample int, want *Result) {
		t.Helper()
		got, err := replay(tr, sample)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := resultDiff(want, got); err != nil {
			t.Fatalf("%s: the replay differs from the recording: %v", name, err)
		}
	}

	// Matching schedule: row-for-row parity with the recording.
	recorded, recRes := recordWith(map[string]string{"eval_sample": "3", "eval_rotate": "1"}, 3)
	sameRows("eval_rotate=1", recorded, 3, recRes)

	// Mismatched schedule: typed configuration error.
	if _, err := replay(recorded, 5); !errors.Is(err, ErrReplayConfig) {
		t.Fatalf("mismatched eval sample: got %v, want ErrReplayConfig", err)
	}
	if _, err := replay(recorded, 0); !errors.Is(err, ErrReplayConfig) {
		t.Fatalf("exact replay of sampled trace: got %v, want ErrReplayConfig", err)
	}
	slow, _ := recordWith(map[string]string{"eval_sample": "3", "eval_rotate": "2"}, 3)
	if _, err := replay(slow, 3); !errors.Is(err, ErrReplayConfig) {
		t.Fatalf("eval_rotate=2: got %v, want ErrReplayConfig", err)
	}

	// A header without eval meta skips the check (legacy traces), and
	// replays row for row under the schedule it was recorded with.
	legacy, legacyRes := recordWith(nil, 3)
	if _, err := replay(legacy, 5); err != nil {
		t.Fatalf("legacy trace without eval meta rejected: %v", err)
	}
	sameRows("no eval meta", legacy, 3, legacyRes)
}

// TestEvalSamplerMembership: samples(round, node) is subsetFor(round)
// membership for every node — across windows, the wrapped last window and
// cycle changes — and asking about rows cycles ahead leaves the subset a
// caller of subsetFor still holds (emitRows, across its drain) untouched.
func TestEvalSamplerMembership(t *testing.T) {
	cfg := Config{EvalSample: 3, EvalEvery: 2, EvalSeed: 5}
	cfg.setDefaults()
	const n = 10
	s, ref := newEvalSampler(n, cfg), newEvalSampler(n, cfg)
	for round := 0; round < 80; round++ {
		held := s.subsetFor(round)
		want := append([]int(nil), held...)
		for ahead := 0; ahead < 40; ahead += 13 {
			in := map[int]bool{}
			for _, i := range ref.subsetFor(round + ahead) {
				in[i] = true
			}
			for node := 0; node < n; node++ {
				if got := s.samples(round+ahead, node); got != in[node] {
					t.Fatalf("samples(%d, %d) = %v, subsetFor says %v", round+ahead, node, got, in[node])
				}
			}
		}
		for i := range want {
			if held[i] != want[i] {
				t.Fatalf("round %d: membership queries rewrote the held subset: %v, was %v", round, held, want)
			}
		}
	}
}
