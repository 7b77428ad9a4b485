package experiments

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/simulation"
	"repro/internal/trace"
)

// TraceHeaderFor builds the trace header for a recorded run, carrying enough
// metadata (dataset, scale, algo, seed, topology) for ReplayTrace to rebuild
// the fleet and topology without any flags. For a dynamic async run, pass
// the effective epoch length (DefaultEpochSec when RunSpec.EpochSec is
// unset) — replay validates its engine topology against it.
func TraceHeaderFor(w *Workload, algo Algo, rounds int, seed uint64, gossip, dynamic bool, epochSec float64) trace.Header {
	var policy simulation.AggregationPolicy = simulation.BarrierPolicy{}
	if gossip {
		policy = simulation.GossipPolicy{}
	}
	return TraceHeaderForPolicy(w, algo, rounds, seed, policy, dynamic, epochSec)
}

// TraceHeaderForPolicy is TraceHeaderFor for an arbitrary aggregation policy:
// the header carries the policy name plus its parameters in Meta
// (policy_k/policy_tau/policy_adaptive for bounded staleness,
// policy_deadline_factor for the straggler-dropping deadline), so
// SpecFromTraceHeader can rebuild the exact policy and replay validation can
// reject a mismatched engine. A nil policy means the engine default (barrier).
func TraceHeaderForPolicy(w *Workload, algo Algo, rounds int, seed uint64, policy simulation.AggregationPolicy, dynamic bool, epochSec float64) trace.Header {
	if policy == nil {
		policy = simulation.BarrierPolicy{}
	}
	if rounds <= 0 {
		rounds = w.Rounds
	}
	topo := "static"
	if dynamic {
		topo = "dynamic"
	}
	h := trace.Header{
		Nodes: w.Nodes, Rounds: rounds, Source: trace.SourceSim, Policy: policy.Name(),
		Meta: map[string]string{
			"dataset":   w.Name,
			"scale":     w.Scale.String(),
			"algo":      string(algo),
			"seed":      strconv.FormatUint(seed, 10),
			"topology":  topo,
			"epoch_sec": strconv.FormatFloat(epochSec, 'g', -1, 64),
		},
	}
	switch p := policy.(type) {
	case simulation.BoundedStalenessPolicy:
		h.Meta["policy_k"] = strconv.Itoa(p.K)
		h.Meta["policy_tau"] = strconv.Itoa(p.Tau)
		h.Meta["policy_adaptive"] = strconv.FormatBool(p.AdaptiveTau)
	case simulation.DeadlinePolicy:
		h.Meta["policy_deadline_factor"] = strconv.FormatFloat(p.Factor, 'g', -1, 64)
	}
	return h
}

// WithEvalSchedule stamps a sampled-evaluation schedule into a trace header
// (eval_sample Meta key), so replays validate their eval config against the
// recording's and SpecFromTraceHeader rebuilds it. eval_rotate is always 1
// (the window advances every eval row); it stays in the header so traces
// read the same to every reader. Exact-eval runs (sample <= 0) leave the
// header untouched — older traces and exact recordings stay byte-identical.
func WithEvalSchedule(h trace.Header, sample int) trace.Header {
	if sample <= 0 {
		return h
	}
	// Copy-on-write: Header is a value but Meta is a shared map — mutating it
	// in place would leak the schedule into the caller's header too.
	meta := make(map[string]string, len(h.Meta)+2)
	for k, v := range h.Meta {
		meta[k] = v
	}
	meta["eval_sample"] = strconv.Itoa(sample)
	meta["eval_rotate"] = "1"
	h.Meta = meta
	return h
}

// policyFromTraceHeader rebuilds the aggregation policy a header describes
// from its Policy name and Meta parameters. An empty or barrier policy maps
// to nil (the engine default).
func policyFromTraceHeader(h trace.Header) (simulation.AggregationPolicy, error) {
	switch h.Policy {
	case "", trace.PolicyBarrier:
		return nil, nil
	case trace.PolicyGossip:
		return simulation.GossipPolicy{}, nil
	case trace.PolicyBounded:
		k, err := strconv.Atoi(h.Meta["policy_k"])
		if err != nil {
			return nil, fmt.Errorf("experiments: trace header policy_k %q: %w", h.Meta["policy_k"], err)
		}
		tau, err := strconv.Atoi(h.Meta["policy_tau"])
		if err != nil {
			return nil, fmt.Errorf("experiments: trace header policy_tau %q: %w", h.Meta["policy_tau"], err)
		}
		adaptive := h.Meta["policy_adaptive"] == "true"
		return simulation.BoundedStalenessPolicy{K: k, Tau: tau, AdaptiveTau: adaptive}, nil
	case trace.PolicyDeadline:
		f, err := strconv.ParseFloat(h.Meta["policy_deadline_factor"], 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: trace header policy_deadline_factor %q: %w", h.Meta["policy_deadline_factor"], err)
		}
		return simulation.DeadlinePolicy{Factor: f}, nil
	default:
		return nil, fmt.Errorf("experiments: trace header policy %q unknown", h.Policy)
	}
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
// describes. Only default algorithm knobs are representable; runs with
// custom alphas/gammas replay through the library API instead.
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
	w, err := NewWorkload(h.Meta["dataset"], scale, h.Nodes, seed)
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
	// Eval-schedule metadata is optional (exact-eval traces omit it).
	if s := h.Meta["eval_sample"]; s != "" {
		spec.EvalSample, err = strconv.Atoi(s)
		if err != nil {
			return RunSpec{}, fmt.Errorf("experiments: trace header eval_sample %q: %w", s, err)
		}
	}
	if s := h.Meta["eval_rotate"]; s != "" && s != "1" {
		return RunSpec{}, fmt.Errorf("%w: trace header eval_rotate %q (the eval window advances every row)", simulation.ErrReplayConfig, s)
	}
	return spec, nil
}

// extReplay records one async JWINS run on the CIFAR-10-like workload under
// stragglers and churn, round-trips the trace through the wire format, and
// replays it as the authoritative schedule: the replay must reproduce the
// event sequence and the byte ledger exactly.
func extReplay(scale Scale, seed uint64, _ Opts) (*Table, error) {
	w, err := NewWorkload("cifar10", scale, 0, seed)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(TraceHeaderFor(w, AlgoJWINS, 0, seed, false, false, 0))
	recorded, err := Run(RunSpec{
		Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Seed: seed, Async: true,
		Het:           simulation.Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.3, LatencySpread: 0.2},
		ChurnFraction: 0.2,
		Recorder:      rec,
	})
	if err != nil {
		return nil, err
	}

	// Round-trip through the wire format before replaying: the parity claim
	// covers serialization, not just the in-memory recording.
	var wire bytes.Buffer
	if err := trace.Write(&wire, rec.Trace()); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	decoded, err := trace.Read(&wire)
	if err != nil {
		return nil, fmt.Errorf("deserialize: %w", err)
	}
	replayed, replayedTrace, err := ReplayTrace(decoded)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	diff := trace.Compare(replayedTrace, rec.Trace())
	return &Table{
		Title: fmt.Sprintf("Extension: trace record/replay (%d nodes, %d rounds, CIFAR-10-like, stragglers + 20%% churn)", w.Nodes, w.Rounds),
		Columns: []Column{
			{Name: "nodes", CSV: "%d"},
			{Name: "rounds", CSV: "%d"},
			{"events", "%d", "events", "  %7d"},
			{"recorded_bytes", "%d", "rec:bytes", "| %10s"},
			{"replayed_bytes", "%d", "rep:bytes", "%10s"},
			{"recorded_acc", "%.2f", "rec:acc", "%7.1f%%"},
			{"replayed_acc", "%.2f", "rep:acc", "%7.1f%%"},
			{"rows_recorded", "%d", "rec:rows", "%8d"},
			{"rows_replayed", "%d", "rep:rows", "%8d"},
			{"sequence_match", "%v", "match", "| %5v"},
			{"time_err_max", "%.6f", "time-err", "%9.6fs"},
			{Head: "unmatched", Text: "%10s"},
			{"stale_mean", "%.4f", "stale:mean", "| %10.3f"},
			{"stale_max", "%.0f", "max", "%3.0f"},
			{"stale_p95", "%.4f", "p95", "%6.3f"},
		},
		Rows: [][]any{{w.Nodes, w.Rounds, rec.Len(), byteCount(recorded.TotalBytes), byteCount(replayed.TotalBytes),
			acc(recorded), acc(replayed), len(recorded.Rounds), len(replayed.Rounds),
			diff.InSync() && diff.TimeErrMax == 0, diff.TimeErrMax, fmt.Sprintf("%d/%d", diff.OnlyA+diff.OnlyB, diff.Matched),
			recorded.StaleMean, recorded.StaleMax, recorded.StaleP95}},
		Notes: []string{"unmatched: replayed and recorded events without a counterpart / matched events; staleness of the recorded run in iterations"},
	}, nil
}
