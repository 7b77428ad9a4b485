package experiments

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// ErrUnsupportedSpec rejects RunSpec combinations that no engine implements
// (as opposed to malformed inputs); match with errors.Is.
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

func (s AlgoSpec) codec() codec.FloatCodec {
	if s.Codec != nil {
		return s.Codec
	}
	return codec.PlaneFlate32{}
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
			n, err = core.NewFullSharing(i, model, loader, w.Opts, spec.codec())
		case AlgoRandom:
			frac := spec.RandomFraction
			if frac == 0 {
				frac = 0.37
			}
			n, err = core.NewRandomSampling(i, model, loader, w.Opts, frac, spec.codec(), nodeRNG.Split())
		case AlgoJWINS, AlgoJWINSNoWavelet, AlgoJWINSNoAccum, AlgoJWINSNoCutoff:
			cfg := core.DefaultJWINSConfig()
			if spec.JWINS != nil {
				cfg = *spec.JWINS
			}
			cfg.FloatCodec = spec.codec()
			switch spec.Kind {
			case AlgoJWINSNoWavelet:
				cfg.DisableWavelet = true
			case AlgoJWINSNoAccum:
				cfg.DisableAccumulation = true
			case AlgoJWINSNoCutoff:
				cfg.DisableRandomCutoff = true
			}
			n, err = core.NewJWINS(i, model, loader, w.Opts, cfg, nodeRNG.Split())
		case AlgoChoco:
			cfg := core.ChocoConfig{Fraction: 0.2, Gamma: 0.6}
			if spec.Choco != nil {
				cfg = *spec.Choco
			}
			if cfg.FloatCodec == nil {
				cfg.FloatCodec = spec.codec()
			}
			n, err = core.NewChoco(i, model, loader, w.Opts, cfg)
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

// Run builds the fleet and topology and executes the run.
func Run(spec RunSpec) (*simulation.Result, error) {
	nodes, err := BuildFleet(spec.Workload, spec.Algo, spec.Seed)
	if err != nil {
		return nil, err
	}
	return runWithNodes(spec, nodes)
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

// runWithNodes executes a run over pre-built nodes (used by experiments that
// instrument node state during the run).
func runWithNodes(spec RunSpec, nodes []core.Node) (*simulation.Result, error) {
	w := spec.Workload
	topoRNG := vec.NewRNG(spec.Seed ^ 0x746f706f) // "topo"
	var provider topology.Provider
	switch {
	case spec.Dynamic && spec.Async:
		// Async dynamic topologies rotate on simulated-time epochs; the base
		// graphs must be random-access deterministic so trace replay can
		// regenerate the recorded sequence.
		epochSec := spec.EpochSec
		if epochSec <= 0 {
			epochSec = DefaultEpochSec(w)
		}
		provider = topology.NewEpochProvider(
			topology.NewSeededDynamic(w.Nodes, w.Degree, spec.Seed^0x746f706f), w.Nodes, epochSec)
	case spec.Dynamic:
		provider = topology.NewDynamic(w.Nodes, w.Degree, topoRNG)
	default:
		g, err := topology.Regular(w.Nodes, w.Degree, topoRNG)
		if err != nil {
			return nil, err
		}
		p := topology.Provider(topology.NewStatic(g))
		if spec.Async && spec.EpochSec > 0 {
			p = topology.NewEpochProvider(p, w.Nodes, spec.EpochSec)
		}
		provider = p
	}
	rounds := spec.Rounds
	if rounds == 0 {
		rounds = w.Rounds
	}
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
		if spec.Recorder != nil || spec.Replay != nil {
			return nil, fmt.Errorf("%w: trace recording and replay require Async runs (the synchronous engine has no event schedule)", ErrUnsupportedSpec)
		}
		if spec.Telemetry != nil {
			return nil, fmt.Errorf("%w: engine telemetry instruments the Async event loop (the synchronous engine has no queue, pool, or policy waits to observe)", ErrUnsupportedSpec)
		}
		if spec.Policy != nil {
			return nil, fmt.Errorf("%w: aggregation policies belong to the Async engine (the synchronous engine is a global barrier by construction)", ErrUnsupportedSpec)
		}
		if spec.EpochSec > 0 {
			return nil, fmt.Errorf("%w: EpochSec rotates on simulated-time epochs, which only the Async engine has (synchronous runs use Dynamic's per-round rotation)", ErrUnsupportedSpec)
		}
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
		Topology: provider,
		TestSet:  w.Dataset,
		Config:   acfg,
		OnRound:  spec.OnRound,
	}
	return eng.Run()
}
