package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/trace"
	"repro/internal/vec"
)

// ScaleWorkload builds the deliberately lean n-node task of the ext-scale
// sweep: 8×8 single-channel 4-class images (two shards per node, the usual
// non-IID dealing) under a 64→16→4 MLP, so per-node compute stays tiny and
// the run measures the *system* — scheduler, payload fan-out, mixing
// bookkeeping — rather than SGD. One sample per class per node keeps dataset
// memory linear in n (4n samples) all the way to 8192 nodes. Synthesis is
// memoized per (n, seed), so a sweep's arms and benchmark re-runs share one
// dataset.
func ScaleWorkload(n int, seed uint64) (*Workload, error) {
	key := presetKey("extscale", Micro, n, seed)
	return memoWorkload(key, func() (*Workload, error) {
		rng := vec.NewRNG(seed)
		ds, err := datasets.SyntheticImages(datasets.ImageConfig{
			Name: "extscale", Classes: 4, Channels: 1, Height: 8, Width: 8,
			TrainPerClass: n, TestPerClass: 8, NoiseSD: 0.3,
		}, rng)
		if err != nil {
			return nil, err
		}
		parts, err := datasets.PartitionShards(ds, n, 2, rng)
		if err != nil {
			return nil, err
		}
		return &Workload{
			Name:    "extscale",
			Nodes:   n,
			Degree:  degreeFor(n),
			Dataset: ds,
			Parts:   parts,
			NewModel: func(r *vec.RNG) nn.Trainable {
				return nn.NewMLP(64, 16, 4, r)
			},
			Opts:      core.TrainOpts{LR: 0.05, LocalSteps: 2},
			Batch:     4,
			Rounds:    4,
			EvalEvery: 4,
			key:       key,
		}, nil
	})
}

// extScale sweeps the async engine over 256 through 8192 nodes (32, 64 and
// one 4096-node row at micro scale) under three arms per size: plain
// heterogeneous async, +20% churn, and +epoch-rotated dynamic topologies with
// sampled mixing metrics (MixingEvery=2, so spectral-gap estimation stays off
// the critical path). From 2048 nodes up, three knobs keep per-arm cost from
// scaling super-linearly: arms score a 64-node rotating eval sample instead
// of an 8-node one, sample their mixing metrics, and record their full
// schedule through a trace.StreamRecorder to a temporary .jtb — the
// demonstration that big-fleet recording needs bounded memory only. Smaller
// arms count events through an in-process sink and score an 8-node rotating
// eval sample. Each arm runs on its own, not through sweep,
// because it streams its own trace and is timed: events is the recorded
// schedule length (every kind, derived send/aggregate records included),
// wall-ms and events/s measure the host. The engine telemetry columns are
// queue-depth p95, simulated policy-wait p95, speculation hit rate, and the
// decoded-payload cache's hit rate.
func extScale(scale Scale, seed uint64, opts Opts) (*Table, error) {
	const sampledFloor, evalSample = 2048, 64
	sizes := []int{256, 512, 1024, 2048, 4096, 8192}
	if scale == Micro {
		sizes = []int{32, 64, 4096}
	}
	t := &Table{
		Title: fmt.Sprintf("Extension: async engine at scale (scale=%s, lean MLP task, JWINS)", scale),
		Columns: []Column{
			{"nodes", "%d", "nodes", "%-6d"},
			{"degree", "%d", "degree", "%-6d"},
			{"arm", "%s", "arm", "%-8s"},
			{Name: "rounds", CSV: "%d"},
			{Name: "eval_sample", CSV: "%d"},
			{Head: "eval", Text: "%-5s"},
			{"events", "%d", "events", "| %9d"},
			{"wall_ms", "%.1f", "wall-ms", "%9.1f"},
			{"events_per_sec", "%.0f", "events/s", "%12.0f"},
			{"sim_time", "%.4f", "sim-time", "| %7.2fs"},
			{Name: "bytes", CSV: "%d"},
			{"acc", "%.2f", "acc", "%7.1f%%"},
			{"epochs", "%d", "epochs", "| %7d"},
			{"gap_mean", "%.4f", "gap", "%8.4f"},
			{Name: "stale_mean", CSV: "%.4f"},
			{Name: "streamed", CSV: "%v"},
			{Name: "trace_bytes", CSV: "%d"},
			{"queue_p95", "%.1f", "q-p95", "| %8.1f"},
			{"wait_p95", "%.4f", "wait-p95", "%7.3fs"},
			{Name: "spec_hit_rate", CSV: "%.4f"},
			{Name: "decode_hit_rate", CSV: "%.4f"},
			{Head: "spec", Text: "%6.0f%%"},
			{Head: "decode", Text: "%6.0f%%"},
			{Head: "trace", Text: "| %-8s"},
		},
		Notes: []string{
			"streamed arms record their full schedule through trace.StreamRecorder (bounded memory).",
			"eval sN arms score a seeded rotating N-node subset per eval row (s8 below 2048 nodes, s64 from 2048 up).",
			"q-p95/wait-p95/spec/decode come from the engine telemetry registry (internal/metrics).",
		},
	}
	arms := []arm{
		{"async", func(s *RunSpec) {}},
		{"churn", func(s *RunSpec) { s.ChurnFraction = 0.2 }},
		{"dyntopo", func(s *RunSpec) { s.Dynamic, s.MixingEvery = true, 2 }},
	}
	tmpDir, err := os.MkdirTemp("", "extscale-traces-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)
	for _, n := range sizes {
		w, err := ScaleWorkload(n, seed)
		if err != nil {
			return nil, err
		}
		for _, a := range arms {
			spec := RunSpec{
				Workload:   w,
				Algo:       AlgoSpec{Kind: AlgoJWINS},
				Seed:       seed,
				Async:      true,
				EvalSample: 8,
				Het:        simulation.Heterogeneity{ComputeSpread: 0.3},
				Telemetry:  simulation.NewTelemetry(),
			}
			a.spec(&spec)
			big := n >= sampledFloor
			if big {
				spec.EvalSample, spec.MixingEvery = evalSample, 2
			}
			if opts.EvalSample > 0 {
				spec.EvalSample = opts.EvalSample
			}
			var (
				stream    *trace.StreamRecorder
				counter   countingSink
				tracePath = filepath.Join(tmpDir, fmt.Sprintf("n%d-%s%s", n, a.label, trace.BinaryExt))
			)
			spec.Recorder = &counter
			if big {
				h, err := spec.TraceHeader()
				if err != nil {
					return nil, err
				}
				if stream, err = trace.NewStreamRecorderFile(tracePath, h); err != nil {
					return nil, err
				}
				spec.Recorder = stream
			}

			start := time.Now()
			r, err := Run(spec)
			if err != nil {
				return nil, fmt.Errorf("n%d-%s: %w", n, a.label, err)
			}
			wallMS := float64(time.Since(start).Microseconds()) / 1000

			events, traceBytes, traceCol := counter.n, int64(0), "-"
			if stream != nil {
				if err := stream.Close(); err != nil {
					return nil, fmt.Errorf("n%d-%s: %w", n, a.label, err)
				}
				events = stream.Len()
				if fi, err := os.Stat(tracePath); err == nil {
					traceBytes = fi.Size()
				}
				traceCol = FormatBytes(traceBytes)
			}
			eventsPerSec := 0.0
			if wallMS > 0 {
				eventsPerSec = float64(events) / (wallMS / 1000)
			}
			evalCol := fmt.Sprintf("s%d", spec.EvalSample)
			tel := simulation.Summarize(r.Telemetry)
			t.Rows = append(t.Rows, []any{n, w.Degree, a.label, w.Rounds, spec.EvalSample, evalCol,
				events, wallMS, eventsPerSec, r.SimTime, r.TotalBytes, acc(r),
				r.Epochs, r.SpectralGapMean, r.StaleMean, stream != nil, traceBytes,
				tel.QueueP95, tel.WaitP95, tel.SpecHitRate, tel.DecodeHitRate,
				tel.SpecHitRate * 100, tel.DecodeHitRate * 100, traceCol})
		}
	}
	return t, nil
}

// countingSink counts recorded events without retaining them — the
// cheap-side instrumentation of the non-streamed arms.
type countingSink struct{ n int }

// Record implements trace.Sink.
func (c *countingSink) Record(trace.Event) { c.n++ }
