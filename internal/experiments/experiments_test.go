package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simulation"
	"repro/internal/trace"
	"repro/internal/vec"
)

func TestParseScale(t *testing.T) {
	for _, s := range []string{"micro", "small", "paper"} {
		sc, err := ParseScale(s)
		if err != nil {
			t.Fatal(err)
		}
		if sc.String() != s {
			t.Fatalf("round trip %s -> %s", s, sc)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("expected error")
	}
}

func TestAllWorkloadsBuild(t *testing.T) {
	for _, name := range WorkloadNames {
		w, err := NewWorkload(name, Micro, 0, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.Parts) != w.Nodes {
			t.Fatalf("%s: %d parts for %d nodes", name, len(w.Parts), w.Nodes)
		}
		for i, p := range w.Parts {
			if len(p) == 0 {
				t.Fatalf("%s: node %d has no data", name, i)
			}
		}
		model := w.NewModel(vec.NewRNG(123))
		if model.ParamCount() <= 0 {
			t.Fatalf("%s: empty model", name)
		}
		if w.Rounds <= 0 || w.Batch <= 0 || w.Opts.LR <= 0 {
			t.Fatalf("%s: bad hyperparameters %+v", name, w)
		}
	}
	if _, err := NewWorkload("imagenet", Micro, 0, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestBuildFleetAllAlgos(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Algo{AlgoFull, AlgoRandom, AlgoJWINS, AlgoChoco, AlgoJWINSNoWavelet, AlgoJWINSNoAccum, AlgoJWINSNoCutoff} {
		nodes, err := BuildFleet(w, AlgoSpec{Kind: kind}, 9)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(nodes) != w.Nodes {
			t.Fatalf("%s: %d nodes", kind, len(nodes))
		}
		// All nodes share identical initial weights.
		dim := nodes[0].Model().ParamCount()
		ref := make([]float64, dim)
		nodes[0].Model().CopyParams(ref)
		p := make([]float64, dim)
		for i := 1; i < len(nodes); i++ {
			nodes[i].Model().CopyParams(p)
			for k := range p {
				if p[k] != ref[k] {
					t.Fatalf("%s: node %d initial weights differ", kind, i)
				}
			}
		}
	}
	if _, err := BuildFleet(w, AlgoSpec{Kind: "nope"}, 9); err == nil {
		t.Fatal("unknown algo accepted")
	}
}

func TestRunSmoke(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunSpec{Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 || res.TotalBytes <= 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestFig2Micro(t *testing.T) {
	r, err := fig2(Micro, 5, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no epochs")
	}
	// Cumulative series must be non-decreasing.
	for i := 1; i < len(r.Rows); i++ {
		for _, col := range []string{"wavelet_mse", "fft_mse", "random_mse"} {
			if num(t, r, i, col) < num(t, r, i-1, col) {
				t.Fatal("cumulative error decreased")
			}
		}
	}
	// The headline property: wavelet loses the least information.
	last := len(r.Rows) - 1
	if wav, rnd := num(t, r, last, "wavelet_mse"), num(t, r, last, "random_mse"); wav >= rnd {
		t.Fatalf("wavelet MSE %v not better than random %v", wav, rnd)
	}
	if !strings.Contains(r.String(), "wavelet") {
		t.Fatal("String() output incomplete")
	}
}

func TestFig3Micro(t *testing.T) {
	r, err := fig3(Micro, 5, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no per-node alphas captured")
	}
	for i := range r.Rows {
		if a := num(t, r, i, "alpha"); a < 0.05 || a > 1 {
			t.Fatalf("alpha %v out of range", a)
		}
	}
	if len(r.Next.Rows) == 0 {
		t.Fatal("no per-round means")
	}
	_ = r.String()
}

func TestFig9Micro(t *testing.T) {
	r, err := fig9(Micro, 5, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if c := num(t, r, 0, "compression"); c < 2 {
		t.Fatalf("gamma compression only %.1fx", c)
	}
	if w := num(t, r, 0, "wasted_fraction"); w < 0.3 || w > 0.7 {
		t.Fatalf("uncompressed metadata share %.2f, expected ~0.5", w)
	}
	_ = r.String()
}

// TestSpecFromTraceHeaderRejects: replay without fleet metadata must fail
// with a clear error, not build a wrong fleet.
func TestSpecFromTraceHeaderRejects(t *testing.T) {
	h := trace.Header{Format: trace.FormatName, Version: trace.FormatVersion, Nodes: 4, Rounds: 2}
	if _, err := SpecFromTraceHeader(h); err == nil {
		t.Fatal("header without metadata accepted")
	}
}

// TestEvalScheduleHeaderRoundTrip: RunSpec.TraceHeader must stamp a sampled
// eval schedule into the header and SpecFromTraceHeader must rebuild it,
// while an exact-eval spec leaves both keys out so exact traces keep their
// bytes. The window advances every eval row: a recording that says
// otherwise (eval_rotate other than 1) is one no run can replay, rejected
// with ErrReplayConfig.
func TestEvalScheduleHeaderRoundTrip(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: 4, Seed: 1, Async: true, EvalSample: 64}
	h, err := spec.TraceHeader()
	if err != nil {
		t.Fatal(err)
	}
	if h.Meta["eval_sample"] != "64" || h.Meta["eval_rotate"] != "1" {
		t.Fatalf("meta = %v", h.Meta)
	}
	back, err := SpecFromTraceHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if back.EvalSample != 64 {
		t.Fatalf("spec eval sample = %d, want 64", back.EvalSample)
	}

	// A recording whose window advanced more slowly.
	spec.EvalSample = 4
	if h, err = spec.TraceHeader(); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(h)
	spec.Recorder = rec
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	slow := rec.Trace()
	slow.Header.Meta["eval_rotate"] = "2"
	if _, _, err := ReplayTrace(slow); !errors.Is(err, simulation.ErrReplayConfig) {
		t.Fatalf("eval_rotate=2: got %v, want ErrReplayConfig", err)
	}

	// Exact evaluation: no eval keys.
	spec.EvalSample, spec.Recorder = 0, nil
	plain, err := spec.TraceHeader()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.Meta["eval_sample"]; ok {
		t.Fatalf("exact-eval header gained eval meta: %v", plain.Meta)
	}
	if _, ok := plain.Meta["eval_rotate"]; ok {
		t.Fatalf("exact-eval header gained eval meta: %v", plain.Meta)
	}
	if back, err = SpecFromTraceHeader(plain); err != nil {
		t.Fatal(err)
	}
	if back.EvalSample != 0 {
		t.Fatalf("exact-eval header produced eval sample %d", back.EvalSample)
	}
}

// TestRecorderRequiresAsync: trace hooks on a synchronous run are a user
// error, reported as such.
func TestRecorderRequiresAsync(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.Header{Nodes: w.Nodes, Rounds: w.Rounds, Source: trace.SourceSim})
	_, err = Run(RunSpec{Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Seed: 1, Recorder: rec})
	if err == nil || !strings.Contains(err.Error(), "Async") {
		t.Fatalf("sync run with recorder: got %v", err)
	}
}
