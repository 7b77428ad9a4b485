package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// ErrUnsupportedSpec rejects a RunSpec that no engine runs as written: a
// setting the chosen engine would ignore, a value out of its range, or a
// trace header that replay could not rebuild the run from. Match with
// errors.Is.
var ErrUnsupportedSpec = errors.New("experiments: unsupported run specification")

// Algo names a decentralized learning algorithm variant.
type Algo string

// Algorithms.
const (
	AlgoFull   Algo = "full-sharing"
	AlgoRandom Algo = "random-sampling"
	AlgoJWINS  Algo = "jwins"
	AlgoChoco  Algo = "choco"
	// Ablation variants (Figure 8).
	AlgoJWINSNoWavelet Algo = "jwins-no-wavelet"
	AlgoJWINSNoAccum   Algo = "jwins-no-accumulation"
	AlgoJWINSNoCutoff  Algo = "jwins-no-cutoff"
)

// known reports whether a names an algorithm buildFleet builds.
func (a Algo) known() bool {
	switch a {
	case AlgoFull, AlgoRandom, AlgoJWINS, AlgoChoco, AlgoJWINSNoWavelet, AlgoJWINSNoAccum, AlgoJWINSNoCutoff:
		return true
	}
	return false
}

// AlgoSpec selects an algorithm and its knobs.
type AlgoSpec struct {
	Kind Algo
	// JWINS overrides the default JWINS config when non-nil.
	JWINS *core.JWINSConfig
	// RandomFraction is the random-sampling share per round (default 0.37,
	// the paper's byte-matched setting).
	RandomFraction float64
	// Choco configures CHOCO-SGD (default fraction 0.2, gamma 0.6).
	Choco *core.ChocoConfig
	// Codec overrides the float codec (default flate32).
	Codec codec.FloatCodec
}

// resolved returns s with every default buildFleet applies written
// out and every knob its Kind ignores cleared, so two specs are DeepEqual
// after resolving exactly when they build the same fleet.
func (s AlgoSpec) resolved() AlgoSpec {
	r := AlgoSpec{Kind: s.Kind, Codec: s.Codec}
	if r.Codec == nil {
		r.Codec = codec.PlaneFlate32{}
	}
	switch s.Kind {
	case AlgoRandom:
		if r.RandomFraction = s.RandomFraction; r.RandomFraction == 0 {
			r.RandomFraction = 0.37
		}
	case AlgoJWINS, AlgoJWINSNoWavelet, AlgoJWINSNoAccum, AlgoJWINSNoCutoff:
		cfg := core.DefaultJWINSConfig()
		if s.JWINS != nil {
			cfg = *s.JWINS
		}
		cfg.FloatCodec = r.Codec
		switch s.Kind {
		case AlgoJWINSNoWavelet:
			cfg.DisableWavelet = true
		case AlgoJWINSNoAccum:
			cfg.DisableAccumulation = true
		case AlgoJWINSNoCutoff:
			cfg.DisableRandomCutoff = true
		}
		r.JWINS = &cfg
	case AlgoChoco:
		cfg := core.ChocoConfig{Fraction: 0.2, Gamma: 0.6}
		if s.Choco != nil {
			cfg = *s.Choco
		}
		if cfg.FloatCodec == nil {
			cfg.FloatCodec = r.Codec
		}
		r.Choco = &cfg
	}
	return r
}

// BuildFleet constructs one node per partition entry. All nodes start from
// identical initial weights (standard D-PSGD practice, required for CHOCO's
// replica bookkeeping); per-node randomness (batch order, cut-off draws)
// descends deterministically from seed.
//
// Per-node models are copy-on-write (nn.Lazy): construction builds one
// template model plus a small wrapper per node, and each node's real layer
// graph materializes on its first train/aggregate/eval touch with the shared
// initial weights installed. A 10k-node fleet at round 0 therefore costs ~1
// model; results are bit-identical to eager construction (the wrapped build
// closure owns a dedicated RNG split, so loader and algorithm seeds do not
// depend on when — or whether — the model is built).
func BuildFleet(w *Workload, spec AlgoSpec, seed uint64) ([]core.Node, error) {
	return buildFleet(w, spec, seed, true)
}

// BuildFleetEager is BuildFleet without copy-on-write models: every node's
// layer graph is built up front. It exists for equivalence tests and for
// measuring what the lazy path saves; fleets behave identically either way.
func BuildFleetEager(w *Workload, spec AlgoSpec, seed uint64) ([]core.Node, error) {
	return buildFleet(w, spec, seed, false)
}

func buildFleet(w *Workload, spec AlgoSpec, seed uint64, lazy bool) ([]core.Node, error) {
	spec = spec.resolved()
	root := vec.NewRNG(seed)
	template := w.NewModel(root.Split())
	initial := make([]float64, template.ParamCount())
	template.CopyParams(initial)

	nodes := make([]core.Node, 0, w.Nodes)
	for i := 0; i < w.Nodes; i++ {
		nodeRNG := root.Split()
		// The model gets its own split in both paths so the loader/algorithm
		// splits below are independent of model construction order; a lazy
		// node that never materializes must not shift its siblings' seeds.
		modelRNG := nodeRNG.Split()
		var model nn.Trainable
		if lazy {
			model = nn.NewLazy(len(initial), initial, func() nn.Trainable { return w.NewModel(modelRNG) })
		} else {
			model = w.NewModel(modelRNG)
			model.SetParams(initial)
		}
		loader := datasets.NewLoader(w.Dataset, w.Parts[i], w.Batch, nodeRNG.Split())

		var (
			n   core.Node
			err error
		)
		switch spec.Kind {
		case AlgoFull:
			n, err = core.NewFullSharing(i, model, loader, w.Opts, spec.Codec)
		case AlgoRandom:
			n, err = core.NewRandomSampling(i, model, loader, w.Opts, spec.RandomFraction, spec.Codec, nodeRNG.Split())
		case AlgoJWINS, AlgoJWINSNoWavelet, AlgoJWINSNoAccum, AlgoJWINSNoCutoff:
			n, err = core.NewJWINS(i, model, loader, w.Opts, *spec.JWINS, nodeRNG.Split())
		case AlgoChoco:
			n, err = core.NewChoco(i, model, loader, w.Opts, *spec.Choco)
		default:
			return nil, fmt.Errorf("experiments: unknown algorithm %q", spec.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: building node %d (%s): %w", i, spec.Kind, err)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// RunSpec describes one engine run.
type RunSpec struct {
	Workload *Workload
	Algo     AlgoSpec
	// Rounds overrides the workload's fixed-epoch budget when > 0.
	Rounds int
	// TargetAccuracy stops early when reached (Figure 5/6 protocol).
	TargetAccuracy float64
	// Dynamic re-randomizes the topology: every round under the synchronous
	// engine (Figure 7), every simulated-time epoch (see EpochSec) under the
	// async engine.
	Dynamic bool
	// EpochSec is the topology epoch length in simulated seconds (async
	// only). With Dynamic it sets the rotation cadence (0 = one nominal
	// round, see DefaultEpochSec); without Dynamic a positive value rotates
	// epochs over the static graph (bookkeeping only — no edges change).
	EpochSec float64
	// EvalSample, when > 0, evaluates a seeded rotating subset of that many
	// nodes per eval row instead of the whole fleet; every node is still
	// visited within ceil(n/EvalSample) eval rows. 0 keeps exact evaluation
	// (see simulation.Config.EvalSample).
	EvalSample int
	// Seed controls every random choice in the run.
	Seed uint64
	// OnRound is forwarded to the engine (optional).
	OnRound func(simulation.RoundMetrics)

	// Async switches to the event-driven scheduler; Rounds becomes the
	// per-node iteration budget.
	Async bool
	// Policy selects the async aggregation policy (async only): nil defaults
	// to the full barrier; see simulation.GossipPolicy for the non-blocking
	// policy and simulation.BoundedStalenessPolicy and
	// simulation.DeadlinePolicy for the semi-async middle ground.
	Policy simulation.AggregationPolicy
	// Het draws per-node compute/bandwidth/latency profiles (async only).
	Het simulation.Heterogeneity
	// ChurnFraction cycles this fraction of nodes out and back in mid-run
	// (async only); the trace is seeded from Seed and placed over the
	// nominal run horizon.
	ChurnFraction float64
	// MixingEvery samples the spectral-gap computation (async only): 0/1 =
	// every epoch, k > 1 = epochs whose index is a multiple of k (skipped
	// epochs report NaN), negative = never. Keeps gap estimation off the
	// critical path of 1024-node sweeps.
	MixingEvery int
	// Recorder, if set, captures the executed async schedule as a trace
	// (async only — the synchronous engine has no event schedule to record).
	// Pass a trace.Recorder to keep it in memory or a trace.StreamRecorder
	// to write it out incrementally with bounded buffers.
	Recorder trace.Sink
	// Replay, if set, makes a recorded trace the authoritative async
	// schedule; Het/ChurnFraction stop influencing event times (async only).
	Replay *trace.Replayer
	// Telemetry, if set, streams engine counters (queue depth, barrier
	// waits, speculation hit rate, byte split) into the given registry as
	// the run executes and snapshots them into Result.Telemetry (async
	// only). Strictly observational: the schedule is identical with or
	// without it.
	Telemetry *simulation.Telemetry

	// faultDrop is ext-faults' per-message drop probability.
	faultDrop float64
}

// Run validates spec, builds the fleet and topology and executes the run.
func Run(spec RunSpec) (*simulation.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	nodes, err := BuildFleet(spec.Workload, spec.Algo, spec.Seed)
	if err != nil {
		return nil, err
	}
	return runWithNodes(spec, nodes)
}

// Validate reports whether an engine runs spec as written. A setting the
// chosen engine would ignore is rejected, not dropped: the synchronous
// engine has no event schedule to record, replay, observe or shape, so every
// async-only field must stay unset without Async. Every rejection wraps
// ErrUnsupportedSpec.
func (s RunSpec) Validate() error {
	switch {
	case s.Rounds < 0:
		return fmt.Errorf("%w: Rounds must be >= 0 (0 = the workload's budget), got %d", ErrUnsupportedSpec, s.Rounds)
	case s.EpochSec < 0:
		return fmt.Errorf("%w: EpochSec must be >= 0 (0 = one nominal round with Dynamic), got %g", ErrUnsupportedSpec, s.EpochSec)
	case s.EvalSample < 0:
		return fmt.Errorf("%w: EvalSample must be >= 0 (0 = exact evaluation), got %d", ErrUnsupportedSpec, s.EvalSample)
	case s.MixingEvery < -1:
		return fmt.Errorf("%w: MixingEvery must be >= -1 (0/1 = every epoch, -1 = never), got %d", ErrUnsupportedSpec, s.MixingEvery)
	case !s.Algo.Kind.known():
		return fmt.Errorf("%w: unknown algorithm %q", ErrUnsupportedSpec, s.Algo.Kind)
	}
	if s.Async {
		return nil
	}
	for _, r := range []struct {
		set bool
		why string
	}{
		{s.Recorder != nil || s.Replay != nil, "trace recording and replay require Async runs (the synchronous engine has no event schedule)"},
		{s.Telemetry != nil, "engine telemetry instruments the Async event loop (the synchronous engine has no queue, pool, or policy waits to observe)"},
		{s.Policy != nil, "aggregation policies belong to the Async engine (the synchronous engine is a global barrier by construction)"},
		{s.EpochSec > 0, "EpochSec rotates on simulated-time epochs, which only the Async engine has (synchronous runs use Dynamic's per-round rotation)"},
		{s.Het != (simulation.Heterogeneity{}), "Het draws per-node profiles for the Async engine (the synchronous time model is per round, not per node)"},
		{s.ChurnFraction != 0, "ChurnFraction makes nodes leave and rejoin, which only the Async engine models"},
		{s.MixingEvery != 0, "MixingEvery samples the spectral gap per simulated-time epoch, which only the Async engine has"},
	} {
		if r.set {
			return fmt.Errorf("%w: %s", ErrUnsupportedSpec, r.why)
		}
	}
	return nil
}

// TraceHeader returns the header a recording of spec carries: workload,
// algorithm, seed, topology, policy and evaluation schedule, with the round
// budget and epoch length the engine will use written out, so that
// SpecFromTraceHeader rebuilds spec and a replay validates its engine
// against the recording. Only a valid Async spec has a schedule to record,
// and only one whose algorithm runs at its defaults and whose workload is
// the preset SpecFromTraceHeader rebuilds can be replayed: the header names
// the algorithm, not its knobs, and the workload by name, scale, node count
// and one seed for the workload and the run, so a workload built from
// another seed or shard count, or given another degree, is refused.
func (s RunSpec) TraceHeader() (trace.Header, error) {
	if err := s.Validate(); err != nil {
		return trace.Header{}, err
	}
	if !s.Async {
		return trace.Header{}, fmt.Errorf("%w: only Async runs have an event schedule to record", ErrUnsupportedSpec)
	}
	if !reflect.DeepEqual(s.Algo.resolved(), AlgoSpec{Kind: s.Algo.Kind}.resolved()) {
		return trace.Header{}, fmt.Errorf("%w: a trace header names the algorithm (%s) but not its knobs, and replay would rebuild it at its defaults", ErrUnsupportedSpec, s.Algo.Kind)
	}
	w := s.Workload
	if w.key != presetKey(w.Name, w.Scale, w.Nodes, s.Seed) || w.Degree != degreeFor(w.Nodes) {
		return trace.Header{}, fmt.Errorf("%w: replay would rebuild the workload as NewWorkload(%q, %s, %d, %d) builds it, at degree %d, but it was built as %+v and has degree %d", ErrUnsupportedSpec, w.Name, w.Scale, w.Nodes, s.Seed, degreeFor(w.Nodes), w.key, w.Degree)
	}
	policy := s.Policy
	if policy == nil {
		policy = simulation.BarrierPolicy{}
	}
	topo := "static"
	if s.Dynamic {
		topo = "dynamic"
	}
	h := trace.Header{
		Nodes: w.Nodes, Rounds: s.rounds(), Source: trace.SourceSim, Policy: policy.Name(),
		Meta: map[string]string{
			"dataset":   w.Name,
			"scale":     w.Scale.String(),
			"algo":      string(s.Algo.Kind),
			"seed":      strconv.FormatUint(s.Seed, 10),
			"topology":  topo,
			"epoch_sec": strconv.FormatFloat(s.epochSec(), 'g', -1, 64),
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
	if s.EvalSample > 0 {
		// The window advances every eval row; eval_rotate says so to every
		// reader. Exact-eval headers carry neither key.
		h.Meta["eval_sample"] = strconv.Itoa(s.EvalSample)
		h.Meta["eval_rotate"] = "1"
	}
	return h, nil
}

// rounds is the run's round budget: Rounds when set, else the workload's.
func (s RunSpec) rounds() int {
	if s.Rounds > 0 {
		return s.Rounds
	}
	return s.Workload.Rounds
}

// epochSec is the topology epoch length of an async run: EpochSec, or
// DefaultEpochSec for a dynamic run that leaves it unset.
func (s RunSpec) epochSec() float64 {
	if s.Dynamic && s.EpochSec == 0 {
		return DefaultEpochSec(s.Workload)
	}
	return s.EpochSec
}

// DefaultEpochSec is the topology epoch length used when RunSpec.EpochSec is
// unset for an async dynamic run: one nominal synchronous round under the
// default time model, estimated from an uncompressed payload. The graph then
// rotates at roughly the per-round cadence of the paper's Figure 7, and the
// value is reproducible from the workload alone — trace headers record it so
// replays can validate their topology against the recording.
func DefaultEpochSec(w *Workload) float64 {
	payload := 4 * w.NewModel(vec.NewRNG(0)).ParamCount()
	return simulation.Config{}.NominalRoundSec(w.Opts.LocalSteps, payload, w.Degree)
}

// runWithNodes executes a valid run over pre-built nodes (used by
// experiments that instrument node state during the run).
func runWithNodes(spec RunSpec, nodes []core.Node) (*simulation.Result, error) {
	w := spec.Workload
	// One seeded d-regular graph, or a fresh one per round (synchronous) or
	// epoch (async) from one seeded sequence; the async engine filters either
	// for liveness and rotates it on simulated-time epochs.
	var provider topology.Provider
	if spec.Dynamic {
		provider = topology.NewSeededDynamic(w.Nodes, w.Degree, spec.Seed^0x746f706f) // "topo"
	} else {
		g, err := topology.Regular(w.Nodes, w.Degree, vec.NewRNG(spec.Seed^0x746f706f))
		if err != nil {
			return nil, err
		}
		provider = topology.NewStatic(g)
	}
	rounds := spec.rounds()
	cfg := simulation.Config{
		Rounds:         rounds,
		EvalEvery:      w.EvalEvery,
		EvalSample:     spec.EvalSample,
		EvalSeed:       spec.Seed,
		TargetAccuracy: spec.TargetAccuracy,
		DropProb:       spec.faultDrop,
		FaultSeed:      spec.Seed,
	}
	if !spec.Async {
		eng := &simulation.Engine{
			Nodes:    nodes,
			Topology: provider,
			TestSet:  w.Dataset,
			Config:   cfg,
			OnRound:  spec.OnRound,
		}
		return eng.Run()
	}

	acfg := simulation.AsyncConfig{
		Config: cfg, Het: spec.Het, Policy: spec.Policy,
		Record: spec.Recorder, Replay: spec.Replay,
		MixingEvery: spec.MixingEvery, Telemetry: spec.Telemetry,
	}
	if acfg.Het.Seed == 0 {
		acfg.Het.Seed = spec.Seed ^ 0x686574 // "het"
	}
	if spec.ChurnFraction > 0 && spec.Replay == nil {
		// Place the churn window over the nominal run horizon, estimated from
		// an uncompressed payload. That is an upper bound — compression can
		// shorten real rounds severalfold — so the window sits early
		// ([5%, 35%] of the estimate) to keep leave/join cycles inside the
		// run for compressed algorithms too.
		payload := 4 * nodes[0].Model().ParamCount()
		horizon := cfg.NominalRoundSec(w.Opts.LocalSteps, payload, w.Degree) * float64(rounds)
		acfg.Churn = simulation.GenerateChurn(
			w.Nodes, spec.ChurnFraction, 0.05*horizon, 0.35*horizon, 0.1*horizon, spec.Seed)
	}
	eng := &simulation.AsyncEngine{
		Nodes:    nodes,
		Topology: topology.NewEpochProvider(provider, w.Nodes, spec.epochSec()),
		TestSet:  w.Dataset,
		Config:   acfg,
		OnRound:  spec.OnRound,
	}
	return eng.Run()
}
