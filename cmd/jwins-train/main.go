// Command jwins-train runs a single decentralized training experiment and
// prints per-round metrics, for exploring algorithms and hyperparameters
// outside the fixed experiment grid.
//
// Example:
//
//	jwins-train -dataset cifar10 -algo jwins -nodes 16 -rounds 60
//	jwins-train -dataset movielens -algo choco -choco-gamma 0.4 -choco-frac 0.2
//	jwins-train -dataset shakespeare -algo full-sharing -dynamic
//	jwins-train -dataset cifar10 -algo jwins -async -churn 0.2 -compute-spread 0.5
//	jwins-train -dataset cifar10 -algo jwins -async -trace-out run.jtb
//	jwins-train -dataset cifar10 -algo jwins -async -dynamic -epoch-sec 0.5
//	jwins-train -dataset cifar10 -algo jwins -async -policy bounded -stale-tau 2
//	jwins-train -dataset cifar10 -algo jwins -async -policy deadline -deadline-factor 1.5
//	jwins-train -dataset movielens -algo jwins -rounds 300 -pprof-addr localhost:7700
//
// -pprof-addr serves the Go profiler (net/http/pprof, under /debug/pprof/)
// while the run executes; /debug/pprof/heap?gc=1 is the live heap by owner,
// mid-run. Async runs always attach the engine's telemetry and end with its
// summary line (queue depth, policy wait, speculation hit rate).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/trace"
	"repro/internal/vec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jwins-train:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset    = flag.String("dataset", "cifar10", "cifar10, movielens, shakespeare, celeba, or femnist")
		algo       = flag.String("algo", "jwins", "jwins, full-sharing, random-sampling, choco, jwins-no-wavelet, jwins-no-accumulation, jwins-no-cutoff")
		scaleName  = flag.String("scale", "small", "micro, small, or paper")
		nodes      = flag.Int("nodes", 0, "node count (0 = scale default)")
		rounds     = flag.Int("rounds", 0, "communication rounds (0 = workload default)")
		seed       = flag.Uint64("seed", 42, "root random seed")
		dynamic    = flag.Bool("dynamic", false, "re-randomize the topology (sync: every round; async: every epoch, see -epoch-sec)")
		target     = flag.Float64("target", 0, "stop at this test accuracy (0 = disabled)")
		budget     = flag.Float64("budget", 0, "JWINS low-budget alpha distribution: 0.2 or 0.1 (0 = default alphas)")
		randFrac   = flag.Float64("rand-frac", 0.37, "random-sampling share fraction")
		chocoGamma = flag.Float64("choco-gamma", 0.6, "CHOCO consensus step size")
		chocoFrac  = flag.Float64("choco-frac", 0.2, "CHOCO TopK fraction")
		wavelet    = flag.String("wavelet", "sym2", "wavelet basis for JWINS")
		levels     = flag.Int("levels", 4, "wavelet decomposition levels")

		// Evaluation schedule (sync and async). Exact all-node evaluation is
		// the default; large fleets opt into sampling.
		evalSample = flag.Int("eval-sample", 0, "evaluate a seeded rotating subset of this many nodes per eval row (0 = exact); every node is visited within ceil(n/sample) eval rows")

		// Event-driven scheduler (async engine).
		async          = flag.Bool("async", false, "use the event-driven scheduler instead of synchronous rounds")
		policyName     = flag.String("policy", "", "async: aggregation policy: barrier, gossip, bounded, or deadline (empty = barrier)")
		staleK         = flag.Int("stale-k", 0, "async -policy bounded: aggregate once this many live-neighbor payloads arrived (0 = half the node degree)")
		staleTau       = flag.Int("stale-tau", 2, "async -policy bounded: max tolerated iteration lag before waiting")
		adaptiveTau    = flag.Bool("adaptive-tau", false, "async -policy bounded: retune tau each epoch to the observed lag p95")
		deadlineFactor = flag.Float64("deadline-factor", 1.5, "async -policy deadline: aggregate after this multiple of the node's nominal round length, dropping stragglers")
		churnFrac      = flag.Float64("churn", 0, "async: fraction of nodes that leave and rejoin mid-run")
		computeSpread  = flag.Float64("compute-spread", 0, "async: lognormal sigma on per-node compute time")
		bwSpread       = flag.Float64("bw-spread", 0, "async: lognormal sigma on per-node uplink bandwidth")
		latencySpread  = flag.Float64("latency-spread", 0, "async: lognormal sigma on per-node latency")
		traceOut       = flag.String("trace-out", "", "async: stream the executed schedule to this trace file (.jtb) as it runs; inspect and replay it with jwins-trace")
		epochSec       = flag.Float64("epoch-sec", 0, "async: topology epoch length in simulated seconds (0 with -dynamic = one nominal round)")
		mixingEvery    = flag.Int("mixing-every", 0, "async: compute the spectral gap only every k-th epoch (0/1 = every epoch, -1 = never; sampled-off epochs report NaN)")
		pprofAddr      = flag.String("pprof-addr", "", "serve the Go profiler (/debug/pprof/) on this address while the run executes")
	)
	flag.Parse()

	tf := trainFlags{
		Async: *async, Policy: *policyName,
		StaleK: *staleK, StaleTau: *staleTau, DeadlineFactor: *deadlineFactor,
		Churn: *churnFrac, ComputeSpread: *computeSpread, BwSpread: *bwSpread,
		LatencySpread: *latencySpread, TraceOut: *traceOut,
		EpochSec: *epochSec, MixingEvery: *mixingEvery,
		EvalSample: *evalSample,
	}
	if err := tf.validate(); err != nil {
		return err
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	w, err := experiments.NewWorkload(*dataset, scale, *nodes, *seed)
	if err != nil {
		return err
	}

	spec := experiments.AlgoSpec{Kind: experiments.Algo(*algo)}
	switch spec.Kind {
	case experiments.AlgoJWINS, experiments.AlgoJWINSNoWavelet, experiments.AlgoJWINSNoAccum, experiments.AlgoJWINSNoCutoff:
		cfg := core.DefaultJWINSConfig()
		cfg.Wavelet = *wavelet
		cfg.Levels = *levels
		if *budget != 0 {
			cfg.Alphas, err = core.BudgetAlphas(*budget)
			if err != nil {
				return err
			}
		}
		spec.JWINS = &cfg
	case experiments.AlgoRandom:
		spec.RandomFraction = *randFrac
	case experiments.AlgoChoco:
		spec.Choco = &core.ChocoConfig{Fraction: *chocoFrac, Gamma: *chocoGamma}
	}

	// Resolve the effective epoch length up front: the trace header must
	// record the value the engine actually rotates with, so replays can
	// validate their topology against the recording.
	effEpochSec := *epochSec
	if *async && *dynamic && effEpochSec <= 0 {
		effEpochSec = experiments.DefaultEpochSec(w)
	}

	// Resolve the aggregation policy the same way: the header records its
	// name and parameters, so a replaying engine can reject a mismatch.
	effStaleK := *staleK
	if effStaleK == 0 {
		if effStaleK = (w.Degree + 1) / 2; effStaleK < 1 {
			effStaleK = 1
		}
	}
	policy, err := simulation.PolicyByName(*policyName, effStaleK, *staleTau, *adaptiveTau, *deadlineFactor)
	if err != nil {
		return err
	}

	// The schedule streams to disk as it executes (bounded buffers), so
	// recording 1024-node runs does not hold O(events) in memory. Closing
	// writes the footer that makes the file a complete trace; a run killed
	// mid-way leaves a file that readers report as truncated.
	var recorder *trace.StreamRecorder
	if *traceOut != "" {
		recorder, err = trace.NewStreamRecorderFile(*traceOut, experiments.WithEvalSchedule(
			experiments.TraceHeaderForPolicy(
				w, experiments.Algo(*algo), *rounds, *seed, policy, *async && *dynamic, effEpochSec),
			*evalSample))
		if err != nil {
			return err
		}
	}

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, nil) //nolint:errcheck // returns once the listener closes
		fmt.Printf("pprof: http://%s/debug/pprof/\n", ln.Addr())
	}
	// Engine telemetry only exists under the async scheduler, and it is
	// strictly observational: the schedule is the same with it on or off.
	var tel *simulation.Telemetry
	if *async {
		tel = simulation.NewTelemetry()
	}

	fmt.Printf("dataset=%s algo=%s nodes=%d degree=%d params=%d rounds=%d conv=%s\n",
		w.Name, *algo, w.Nodes, w.Degree, w.NewModel(vec.NewRNG(*seed)).ParamCount(), pick(*rounds, w.Rounds), nn.ConvPath())
	fmt.Printf("%-7s %-11s %-10s %-9s %-13s %-10s\n",
		"round", "train-loss", "test-loss", "test-acc", "sent-total", "sim-time")

	runSpec := experiments.RunSpec{
		Workload:       w,
		Algo:           spec,
		Rounds:         *rounds,
		TargetAccuracy: *target,
		Dynamic:        *dynamic,
		EpochSec:       effEpochSec,
		EvalSample:     *evalSample,
		Seed:           *seed,
		Async:          *async,
		Policy:         policy,
		ChurnFraction:  *churnFrac,
		MixingEvery:    *mixingEvery,
		Telemetry:      tel,
		Het: simulation.Heterogeneity{
			ComputeSpread:   *computeSpread,
			BandwidthSpread: *bwSpread,
			LatencySpread:   *latencySpread,
		},
		OnRound: func(rm simulation.RoundMetrics) {
			if math.IsNaN(rm.TestAcc) {
				return
			}
			fmt.Printf("%-7d %-11.4f %-10.4f %-8.1f%% %-13s %-9.1fs\n",
				rm.Round+1, rm.TrainLoss, rm.TestLoss, rm.TestAcc*100,
				experiments.FormatBytes(rm.CumTotalBytes), rm.SimTime)
		},
	}
	if recorder != nil {
		runSpec.Recorder = recorder
	}
	res, err := experiments.Run(runSpec)
	if err != nil {
		if recorder != nil {
			// Abort, don't Close: a failed run must leave a file that reads
			// as truncated, not a finalized trace of rounds never executed.
			recorder.Abort()
		}
		return err
	}

	fmt.Printf("\nfinal: accuracy %.1f%%, loss %.4f, %s sent (%s metadata), %.1fs simulated\n",
		res.FinalAccuracy*100, res.FinalLoss,
		experiments.FormatBytes(res.TotalBytes), experiments.FormatBytes(res.MetaBytes), res.SimTime)
	if *async {
		fmt.Printf("staleness: mean %.3f, max %.0f, p95 %.3f iterations\n",
			res.StaleMean, res.StaleMax, res.StaleP95)
		polName := trace.PolicyBarrier
		if policy != nil {
			polName = policy.Name()
		}
		fmt.Printf("policy: %s, eff neighbors mean %.2f, drop rate %.2f%%, late drops %d\n",
			polName, res.EffNeighborsMean, res.DropRate*100, res.LateDrops)
		fmt.Printf("mixing: %d epochs, spectral gap mean %.4f (min %.4f), neighbor turnover %.4f\n",
			res.Epochs, res.SpectralGapMean, res.SpectralGapMin, res.TurnoverMean)
		if res.Telemetry != nil {
			ts := simulation.Summarize(res.Telemetry)
			fmt.Printf("telemetry: queue p95 %.0f, policy wait p95 %.3fs, speculation hit rate %.0f%%\n",
				ts.QueueP95, ts.WaitP95, ts.SpecHitRate*100)
		}
	}
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			return fmt.Errorf("finalizing %s: %w", *traceOut, err)
		}
		fmt.Printf("trace: streamed %s (%d events; replay with: jwins-trace replay %s)\n",
			*traceOut, recorder.Len(), *traceOut)
	}
	if *target > 0 {
		if res.RoundsToTarget > 0 {
			fmt.Printf("target %.1f%% reached in %d rounds, %s\n",
				*target*100, res.RoundsToTarget, experiments.FormatBytes(res.BytesToTarget))
		} else {
			fmt.Printf("target %.1f%% not reached\n", *target*100)
		}
	}
	return nil
}

func pick(a, b int) int {
	if a > 0 {
		return a
	}
	return b
}

// errBadFlag is the typed rejection for invalid flag combinations and
// out-of-range values; match with errors.Is.
var errBadFlag = errors.New("invalid flag")

// trainFlags carries the scheduler-facing flag values through validation,
// keeping the rejection rules testable without a flag.FlagSet.
type trainFlags struct {
	Async          bool
	Policy         string
	StaleK         int
	StaleTau       int
	DeadlineFactor float64
	Churn          float64
	ComputeSpread  float64
	BwSpread       float64
	LatencySpread  float64
	TraceOut       string
	EpochSec       float64
	MixingEvery    int
	EvalSample     int
}

// validate rejects flag combinations the engine would otherwise misinterpret.
// The async-only knobs are rejected without -async rather than silently
// ignored: a sync run has no schedule to record and no event times for
// policies/churn/heterogeneity to shape.
func (f trainFlags) validate() error {
	if !f.Async {
		switch {
		case f.Policy != "":
			return fmt.Errorf("%w: -policy requires -async (aggregation policies only exist under the event-driven scheduler)", errBadFlag)
		case f.Churn != 0:
			return fmt.Errorf("%w: -churn requires -async (nodes leave and rejoin only under the event-driven scheduler)", errBadFlag)
		case f.ComputeSpread != 0 || f.BwSpread != 0 || f.LatencySpread != 0:
			return fmt.Errorf("%w: -compute-spread/-bw-spread/-latency-spread require -async (the synchronous time model is per-round, not per-node)", errBadFlag)
		case f.TraceOut != "":
			return fmt.Errorf("%w: -trace-out requires -async (only the event-driven scheduler produces an event trace)", errBadFlag)
		case f.EpochSec != 0:
			return fmt.Errorf("%w: -epoch-sec requires -async (simulated-time epochs only exist under the event-driven scheduler; sync -dynamic rotates per round)", errBadFlag)
		case f.MixingEvery != 0:
			return fmt.Errorf("%w: -mixing-every requires -async (spectral-gap sampling is per simulated-time epoch)", errBadFlag)
		}
	}
	switch f.Policy {
	case "", trace.PolicyBarrier, trace.PolicyGossip, trace.PolicyBounded, trace.PolicyDeadline:
	default:
		return fmt.Errorf("%w: -policy %q unknown (want barrier, gossip, bounded, or deadline)", errBadFlag, f.Policy)
	}
	if f.StaleK < 0 {
		return fmt.Errorf("%w: -stale-k must be >= 0 (0 = half the node degree), got %d", errBadFlag, f.StaleK)
	}
	if f.StaleTau < 0 {
		return fmt.Errorf("%w: -stale-tau must be >= 0, got %d", errBadFlag, f.StaleTau)
	}
	if f.DeadlineFactor <= 0 {
		return fmt.Errorf("%w: -deadline-factor must be > 0, got %g", errBadFlag, f.DeadlineFactor)
	}
	if f.EpochSec < 0 {
		// A negative value would silently run static while recording a
		// bogus epoch length into the trace header, breaking replay.
		return fmt.Errorf("%w: -epoch-sec must be >= 0, got %g", errBadFlag, f.EpochSec)
	}
	if f.MixingEvery < -1 {
		return fmt.Errorf("%w: -mixing-every must be >= -1 (0/1 = every epoch, -1 = never), got %d", errBadFlag, f.MixingEvery)
	}
	if f.EvalSample < 0 {
		return fmt.Errorf("%w: -eval-sample must be >= 0 (0 = exact evaluation), got %d", errBadFlag, f.EvalSample)
	}
	return nil
}
