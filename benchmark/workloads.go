package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// fixedSeed seeds everything --seed does not make; it is what -seed 1 is to
// jwins-train. It always seeds BuildFleet: initial weights, batch order and
// JWINS's randomized cut-off draws.
//
// The driver compares medians taken over different --seed values, so --seed
// makes, per workload, the input that can change without the outputs jumping
// (README.md, "What --seed makes", has the measurements):
//   - the sync workloads stand for the paper's fixed datasets, so their
//     dataset and partition come from fixedSeed, and --seed draws the static
//     communication graph (and seeds evaluation and faults, as
//     runWithNodes seeds them from the run's seed);
//   - scale-async rotates through some twenty random graphs in every run
//     already, so its graph sequence, node profiles and churn come from
//     fixedSeed, and --seed makes its synthetic dataset.
//
// At --seed = fixedSeed a sync run is experiments.Run on RunSpec{Seed:
// fixedSeed}, and a scale-async run is that at every --seed; the
// harness-parity test pins both.
const fixedSeed = 1

// topoSeedMask is the topology seed derivation of experiments.runWithNodes
// ("topo").
const topoSeedMask = 0x746f706f

// size is one workload's fixed work and what it must achieve: the fleet, the
// round budget, and the learning the budget has to show.
type size struct {
	scale  experiments.Scale // sync workloads only
	nodes  int
	rounds int
	// target, when set, is the mean test accuracy an evaluation row must
	// reach within the budget; a run that never reaches it fails.
	target float64
	// maxLoss is the ceiling on the final mean test loss, below the untrained
	// model's loss wherever the budget allows learning.
	maxLoss float64
}

// workload is one named benchmark workload. build constructs fleet, topology
// and engine for one run; every run mode (e2e, serial, traced) goes through
// it and differs only in the hooks it passes.
type workload struct {
	name  string
	why   string
	algo  experiments.Algo
	full  size // the timed size
	smoke size // same code path at micro size, for the tests
	// windows is how many --seconds windows the default runs of a --trace 0
	// invocation fill: more than one where the host's interference moves the
	// timing most, so that the invocation outlasts more of its spells.
	windows float64
	// maxDenseShare, when set, is the ceiling on bytes_total as a share of
	// what the same rounds would send as uncompressed dense float32 vectors:
	// the paper's byte saving.
	maxDenseShare float64
	build         func(wl *workload, sz size, seed uint64, h hooks) (*built, error)
}

// The four workloads. Node counts, models and dataset shapes are the ones the
// issue fixed. cifar-jwins keeps the issue's 40 rounds, because it has to
// reach its target accuracy; the other three do the same work every round, so
// their round budgets are cut to fit the driver's time cap (see README.md,
// "Sizes").
var workloads = []workload{
	{
		name: "cifar-jwins",
		why:  "paper headline task (CIFAR-10-like, GN-LeNet, 16 nodes, JWINS): nn-bound, train and eval each about half, so nn and worker-pool changes show and comms changes must not",
		algo: experiments.AlgoJWINS,
		full: size{scale: experiments.Small, nodes: 16, rounds: 40, target: 0.45, maxLoss: 1.8},
		// Six micro rounds do not learn yet: the ceiling only guards divergence.
		smoke:         size{scale: experiments.Micro, nodes: 8, rounds: 6, maxLoss: 3.2},
		windows:       1, // a run outlasts the window: two runs, the minimum
		maxDenseShare: 0.45,
		build:         buildSync("cifar10", false),
	},
	{
		name:          "movielens-jwins",
		why:           "comms-bound sparse path: cheap SGD on a 45,221-parameter vector at the paper's 96 nodes, so dwt, sparsify, codec and the core merge do almost all the work",
		algo:          experiments.AlgoJWINS,
		full:          size{scale: experiments.Paper, nodes: 96, rounds: 12, maxLoss: 0.8},
		smoke:         size{scale: experiments.Micro, nodes: 8, rounds: 6, maxLoss: 0.8},
		windows:       1,
		maxDenseShare: 0.45,
		build:         buildSync("movielens", true),
	},
	{
		name:    "movielens-full",
		why:     "same fleet under full sharing: dense encode, decode and average with zero dwt and sparsify calls, so a sparse-path win that taxes the dense path shows; the paper's plain baseline",
		algo:    experiments.AlgoFull,
		full:    size{scale: experiments.Paper, nodes: 96, rounds: 12, maxLoss: 0.8},
		smoke:   size{scale: experiments.Micro, nodes: 8, rounds: 6, maxLoss: 0.8},
		windows: 1,
		build:   buildSync("movielens", true),
	},
	{
		name:    "scale-async",
		why:     "scheduler-bound: 2048 lean nodes, raw32 codec, churn, epoch-rotated topology and a streamed trace leave the serial event loop as the wall; nn and codec gains should barely move it",
		algo:    experiments.AlgoJWINS,
		full:    size{nodes: 2048, rounds: 14, maxLoss: 1.0},
		smoke:   size{nodes: 64, rounds: 6, maxLoss: 1.0},
		windows: 2.5, // memory-bound on 2048 fleets: the neighbours' load moves it by up to 80%
		build:   buildAsync,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// hooks are what distinguishes the run modes. The zero value is the e2e run:
// default parallelism and nothing wrapped.
type hooks struct {
	parallelism int     // 0 = engine default
	tr          *tracer // non-nil wraps every node, model and sink
	onRound     func(simulation.RoundMetrics)
}

// built is one constructed run, ready to start.
type built struct {
	w     *experiments.Workload
	fleet []core.Node      // unwrapped, for the probes
	fc    codec.FloatCodec // the fleet's value codec, for the probes
	run   func() (*simulation.Result, error)

	synthS, fleetS float64

	// scale-async only.
	recorder  *trace.StreamRecorder
	tracePath string
	cleanup   func()
}

// prepare applies the model hook and builds the fleet, timing both halves of
// set-up.
func prepare(w *experiments.Workload, spec experiments.AlgoSpec, h hooks, synthStart time.Time) (*built, []core.Node, error) {
	b := &built{w: w, fc: spec.Codec, synthS: time.Since(synthStart).Seconds(), cleanup: func() {}}
	if b.fc == nil {
		b.fc = codec.PlaneFlate32{} // BuildFleet's default
	}
	if h.tr != nil {
		inner := w.NewModel
		w.NewModel = func(r *vec.RNG) nn.Trainable { return h.tr.model(inner, r) }
	}
	fleetStart := time.Now()
	fleet, err := experiments.BuildFleet(w, spec, fixedSeed)
	if err != nil {
		return nil, nil, err
	}
	b.fleetS = time.Since(fleetStart).Seconds()
	b.fleet = fleet
	nodes := fleet
	if h.tr != nil {
		nodes = make([]core.Node, len(fleet))
		for i, nd := range fleet {
			nodes[i] = h.tr.node(nd)
		}
	}
	return b, nodes, nil
}

// buildSync builds a synchronous-engine workload the way
// experiments.runWithNodes runs it: static regular graph from seed^"topo",
// EvalSeed and FaultSeed = seed. The dataset and the fleet come from
// fixedSeed. finalEvalOnly evaluates once, at the end; otherwise the
// workload's own cadence applies.
func buildSync(dataset string, finalEvalOnly bool) func(*workload, size, uint64, hooks) (*built, error) {
	return func(wl *workload, sz size, seed uint64, h hooks) (*built, error) {
		start := time.Now()
		w, err := experiments.NewWorkload(dataset, sz.scale, sz.nodes, fixedSeed)
		if err != nil {
			return nil, err
		}
		b, nodes, err := prepare(w, experiments.AlgoSpec{Kind: wl.algo}, h, start)
		if err != nil {
			return nil, err
		}
		g, err := topology.Regular(w.Nodes, w.Degree, vec.NewRNG(seed^topoSeedMask))
		if err != nil {
			return nil, err
		}
		evalEvery := w.EvalEvery
		if finalEvalOnly {
			evalEvery = sz.rounds
		}
		eng := &simulation.Engine{
			Nodes: nodes, Topology: topology.NewStatic(g), TestSet: w.Dataset,
			Config: simulation.Config{
				Rounds: sz.rounds, EvalEvery: evalEvery, EvalSeed: seed, FaultSeed: seed,
				Parallelism: h.parallelism,
			},
			OnRound: h.onRound,
		}
		b.run = eng.Run
		return b, nil
	}
}

// Async scenario knobs, as in the ext-scale sweep's 2048-node arms.
const (
	asyncComputeSpread = 0.3
	asyncChurnFraction = 0.2
	asyncMixingEvery   = 2
	asyncEvalSample    = 64
)

// buildAsync builds the scale-async workload: ScaleWorkload under the async
// engine with barrier policy, heterogeneous compute, churn placed over the
// nominal horizon as runWithNodes places it, an epoch-rotated seeded dynamic
// topology, sampled evaluation and a streamed binary trace. The dataset comes
// from seed, everything else from fixedSeed.
func buildAsync(wl *workload, sz size, seed uint64, h hooks) (*built, error) {
	start := time.Now()
	w, err := experiments.ScaleWorkload(sz.nodes, seed)
	if err != nil {
		return nil, err
	}
	spec := experiments.AlgoSpec{Kind: wl.algo, Codec: codec.Raw32{}}
	b, nodes, err := prepare(w, spec, h, start)
	if err != nil {
		return nil, err
	}
	epochSec := experiments.DefaultEpochSec(w)
	provider := topology.NewEpochProvider(
		topology.NewSeededDynamic(w.Nodes, w.Degree, fixedSeed^topoSeedMask), w.Nodes, epochSec)
	cfg := simulation.Config{
		Rounds: sz.rounds, EvalEvery: w.EvalEvery, EvalSample: asyncEvalSample,
		EvalSeed: fixedSeed, FaultSeed: fixedSeed, Parallelism: h.parallelism,
	}
	payload := 4 * nodes[0].Model().ParamCount()
	horizon := cfg.NominalRoundSec(w.Opts.LocalSteps, payload, w.Degree) * float64(sz.rounds)
	acfg := simulation.AsyncConfig{
		Config:      cfg,
		Het:         simulation.Heterogeneity{ComputeSpread: asyncComputeSpread, Seed: fixedSeed ^ 0x686574},
		Churn:       simulation.GenerateChurn(w.Nodes, asyncChurnFraction, 0.05*horizon, 0.35*horizon, 0.1*horizon, fixedSeed),
		MixingEvery: asyncMixingEvery,
	}

	dir, err := os.MkdirTemp(".", "trace-")
	if err != nil {
		return nil, err
	}
	b.cleanup = func() { os.RemoveAll(dir) }
	b.tracePath = filepath.Join(dir, "run"+trace.BinaryExt)
	b.recorder, err = trace.NewStreamRecorderFile(b.tracePath, trace.Header{
		Nodes: w.Nodes, Rounds: sz.rounds, Source: trace.SourceSim, Policy: trace.PolicyBarrier,
		Meta: map[string]string{"workload": wl.name, "seed": fmt.Sprint(seed)},
	})
	if err != nil {
		b.cleanup()
		return nil, err
	}
	acfg.Record = b.recorder
	if h.tr != nil {
		acfg.Record = h.tr.sink(b.recorder)
		acfg.Telemetry = simulation.NewTelemetry()
	}
	eng := &simulation.AsyncEngine{Nodes: nodes, Topology: provider, TestSet: w.Dataset, Config: acfg, OnRound: h.onRound}
	b.run = func() (*simulation.Result, error) {
		res, err := eng.Run()
		if err != nil {
			b.recorder.Abort()
			return nil, err
		}
		// Closing finalises the file, so it belongs to the run's wall time.
		if err := b.recorder.Close(); err != nil {
			return nil, fmt.Errorf("closing trace: %w", err)
		}
		return res, nil
	}
	return b, nil
}
