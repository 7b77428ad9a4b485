package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/simulation"
	"repro/internal/trace"
)

// policyFromTraceHeader rebuilds the aggregation policy a header describes
// from its Policy name and Meta parameters; an empty name means the engine
// default (nil).
func policyFromTraceHeader(h trace.Header) (simulation.AggregationPolicy, error) {
	var (
		k, tau int
		factor float64
		err    error
	)
	switch h.Policy {
	case trace.PolicyBounded:
		if k, err = strconv.Atoi(h.Meta["policy_k"]); err != nil {
			return nil, fmt.Errorf("experiments: trace header policy_k %q: %w", h.Meta["policy_k"], err)
		}
		if tau, err = strconv.Atoi(h.Meta["policy_tau"]); err != nil {
			return nil, fmt.Errorf("experiments: trace header policy_tau %q: %w", h.Meta["policy_tau"], err)
		}
	case trace.PolicyDeadline:
		if factor, err = strconv.ParseFloat(h.Meta["policy_deadline_factor"], 64); err != nil {
			return nil, fmt.Errorf("experiments: trace header policy_deadline_factor %q: %w", h.Meta["policy_deadline_factor"], err)
		}
	}
	return simulation.PolicyByName(h.Policy, k, tau, h.Meta["policy_adaptive"] == "true", factor)
}

// ReplayTrace rebuilds the fleet a trace describes (from its header
// metadata) and re-executes the recorded schedule through the async engine,
// recording the replayed schedule alongside. The replay must be
// event-identical to the recording.
func ReplayTrace(tr *trace.Trace) (*simulation.Result, *trace.Trace, error) {
	spec, err := SpecFromTraceHeader(tr.Header)
	if err != nil {
		return nil, nil, err
	}
	rp, err := trace.NewReplayer(tr)
	if err != nil {
		return nil, nil, err
	}
	spec.Replay = rp
	rec := trace.NewRecorder(tr.Header)
	rec.Trace().Header.Source = trace.SourceSim // the replay itself is simulated
	spec.Recorder = rec
	res, err := Run(spec)
	if err != nil {
		return nil, nil, err
	}
	return res, rec.Trace(), nil
}

// SpecFromTraceHeader reconstructs the run specification a trace header
// describes: the inverse of RunSpec.TraceHeader. Only default algorithm
// knobs are representable; runs with custom alphas/gammas replay through the
// library API instead.
func SpecFromTraceHeader(h trace.Header) (RunSpec, error) {
	for _, key := range []string{"dataset", "scale", "algo", "seed"} {
		if h.Meta[key] == "" {
			return RunSpec{}, fmt.Errorf("experiments: trace header lacks %q metadata; replay needs dataset/scale/algo/seed", key)
		}
	}
	scale, err := ParseScale(h.Meta["scale"])
	if err != nil {
		return RunSpec{}, err
	}
	seed, err := strconv.ParseUint(h.Meta["seed"], 10, 64)
	if err != nil {
		return RunSpec{}, fmt.Errorf("experiments: trace header seed %q: %w", h.Meta["seed"], err)
	}
	var w *Workload
	if h.Meta["dataset"] == "extscale" {
		w, err = ScaleWorkload(h.Nodes, seed)
	} else {
		w, err = NewWorkload(h.Meta["dataset"], scale, h.Nodes, seed)
	}
	if err != nil {
		return RunSpec{}, err
	}
	policy, err := policyFromTraceHeader(h)
	if err != nil {
		return RunSpec{}, err
	}
	spec := RunSpec{
		Workload: w,
		Algo:     AlgoSpec{Kind: Algo(h.Meta["algo"])},
		Rounds:   h.Rounds,
		Seed:     seed,
		Async:    true,
		Policy:   policy,
	}
	// Topology metadata is optional (older traces are static).
	switch h.Meta["topology"] {
	case "", "static":
	case "dynamic":
		spec.Dynamic = true
	default:
		return RunSpec{}, fmt.Errorf("experiments: trace header topology %q unknown (want static or dynamic)", h.Meta["topology"])
	}
	if s := h.Meta["epoch_sec"]; s != "" {
		spec.EpochSec, err = strconv.ParseFloat(s, 64)
		if err != nil {
			return RunSpec{}, fmt.Errorf("experiments: trace header epoch_sec %q: %w", s, err)
		}
	}
	// Eval-schedule metadata is optional (exact-eval traces omit it); the
	// engine validates eval_rotate against its own schedule on replay.
	if s := h.Meta["eval_sample"]; s != "" {
		spec.EvalSample, err = strconv.Atoi(s)
		if err != nil {
			return RunSpec{}, fmt.Errorf("experiments: trace header eval_sample %q: %w", s, err)
		}
	}
	return spec, nil
}
