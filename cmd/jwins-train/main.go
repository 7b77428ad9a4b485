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
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jwins-train:", err)
		os.Exit(1)
	}
}

// run parses args into a RunSpec and executes it, printing to out. The spec
// is validated, and its trace header built, before anything is created,
// listened on or printed: a rejected command line leaves nothing behind.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jwins-train", flag.ExitOnError)
	var (
		dataset    = fs.String("dataset", "cifar10", "cifar10, movielens, shakespeare, celeba, or femnist")
		algo       = fs.String("algo", "jwins", "jwins, full-sharing, random-sampling, choco, jwins-no-wavelet, jwins-no-accumulation, jwins-no-cutoff")
		scaleName  = fs.String("scale", "small", "micro, small, or paper")
		nodes      = fs.Int("nodes", 0, "node count (0 = scale default)")
		rounds     = fs.Int("rounds", 0, "communication rounds (0 = workload default)")
		seed       = fs.Uint64("seed", 42, "root random seed")
		dynamic    = fs.Bool("dynamic", false, "re-randomize the topology (sync: every round; async: every epoch, see -epoch-sec)")
		target     = fs.Float64("target", 0, "stop at this test accuracy (0 = disabled)")
		budget     = fs.Float64("budget", 0, "JWINS low-budget alpha distribution: 0.2 or 0.1 (0 = default alphas)")
		randFrac   = fs.Float64("rand-frac", 0.37, "random-sampling share fraction")
		chocoGamma = fs.Float64("choco-gamma", 0.6, "CHOCO consensus step size")
		chocoFrac  = fs.Float64("choco-frac", 0.2, "CHOCO TopK fraction")
		wavelet    = fs.String("wavelet", "sym2", "wavelet basis for JWINS")
		levels     = fs.Int("levels", 4, "wavelet decomposition levels")

		// Evaluation schedule (sync and async). Exact all-node evaluation is
		// the default; large fleets opt into sampling.
		evalSample = fs.Int("eval-sample", 0, "evaluate a seeded rotating subset of this many nodes per eval row (0 = exact); every node is visited within ceil(n/sample) eval rows")

		// Event-driven scheduler (async engine).
		async          = fs.Bool("async", false, "use the event-driven scheduler instead of synchronous rounds")
		policyName     = fs.String("policy", "", "async: aggregation policy: barrier, gossip, bounded, or deadline (empty = barrier)")
		staleK         = fs.Int("stale-k", 0, "async -policy bounded: aggregate once this many live-neighbor payloads arrived (0 = half the node degree)")
		staleTau       = fs.Int("stale-tau", 2, "async -policy bounded: max tolerated iteration lag before waiting")
		adaptiveTau    = fs.Bool("adaptive-tau", false, "async -policy bounded: retune tau each epoch to the observed lag p95")
		deadlineFactor = fs.Float64("deadline-factor", 1.5, "async -policy deadline: aggregate after this multiple of the node's nominal round length, dropping stragglers")
		churnFrac      = fs.Float64("churn", 0, "async: fraction of nodes that leave and rejoin mid-run")
		computeSpread  = fs.Float64("compute-spread", 0, "async: lognormal sigma on per-node compute time")
		bwSpread       = fs.Float64("bw-spread", 0, "async: lognormal sigma on per-node uplink bandwidth")
		latencySpread  = fs.Float64("latency-spread", 0, "async: lognormal sigma on per-node latency")
		traceOut       = fs.String("trace-out", "", "async: stream the executed schedule to this trace file (.jtb) as it runs; inspect and replay it with jwins-trace")
		epochSec       = fs.Float64("epoch-sec", 0, "async: topology epoch length in simulated seconds (0 with -dynamic = one nominal round)")
		mixingEvery    = fs.Int("mixing-every", 0, "async: compute the spectral gap only every k-th epoch (0/1 = every epoch, -1 = never; sampled-off epochs report NaN)")
		pprofAddr      = fs.String("pprof-addr", "", "serve the Go profiler (/debug/pprof/) on this address while the run executes")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits before Parse returns

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

	// -stale-k 0 means half the node degree, which only the workload knows.
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
	// Engine telemetry only exists under the async scheduler, and it is
	// strictly observational: the schedule is the same with it on or off.
	var tel *simulation.Telemetry
	if *async {
		tel = simulation.NewTelemetry()
	}
	runSpec := experiments.RunSpec{
		Workload:       w,
		Algo:           spec,
		Rounds:         *rounds,
		TargetAccuracy: *target,
		Dynamic:        *dynamic,
		EpochSec:       *epochSec,
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
			fmt.Fprintf(out, "%-7d %-11.4f %-10.4f %-8.1f%% %-13s %-9.1fs\n",
				rm.Round+1, rm.TrainLoss, rm.TestLoss, rm.TestAcc*100,
				experiments.FormatBytes(rm.CumTotalBytes), rm.SimTime)
		},
	}
	if err := runSpec.Validate(); err != nil {
		return err
	}
	var header trace.Header
	if *traceOut != "" {
		if header, err = runSpec.TraceHeader(); err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
	}

	// The schedule streams to disk as it executes (bounded buffers), so
	// recording 1024-node runs does not hold O(events) in memory. Closing
	// writes the footer that makes the file a complete trace; a run killed
	// mid-way leaves a file that readers report as truncated.
	var recorder *trace.StreamRecorder
	if *traceOut != "" {
		if recorder, err = trace.NewStreamRecorderFile(*traceOut, header); err != nil {
			return err
		}
		runSpec.Recorder = recorder
	}

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, nil) //nolint:errcheck // returns once the listener closes
		fmt.Fprintf(out, "pprof: http://%s/debug/pprof/\n", ln.Addr())
	}

	fmt.Fprintf(out, "dataset=%s algo=%s nodes=%d degree=%d params=%d rounds=%d conv=%s\n",
		w.Name, *algo, w.Nodes, w.Degree, w.NewModel(vec.NewRNG(*seed)).ParamCount(), pick(*rounds, w.Rounds), nn.ConvPath())
	fmt.Fprintf(out, "%-7s %-11s %-10s %-9s %-13s %-10s\n",
		"round", "train-loss", "test-loss", "test-acc", "sent-total", "sim-time")

	res, err := experiments.Run(runSpec)
	if err != nil {
		if recorder != nil {
			// Abort, don't Close: a failed run must leave a file that reads
			// as truncated, not a finalized trace of rounds never executed.
			recorder.Abort()
		}
		return err
	}

	fmt.Fprintf(out, "\nfinal: accuracy %.1f%%, loss %.4f, %s sent (%s metadata), %.1fs simulated\n",
		res.FinalAccuracy*100, res.FinalLoss,
		experiments.FormatBytes(res.TotalBytes), experiments.FormatBytes(res.MetaBytes), res.SimTime)
	if *async {
		fmt.Fprintf(out, "staleness: mean %.3f, max %.0f, p95 %.3f iterations\n",
			res.StaleMean, res.StaleMax, res.StaleP95)
		polName := trace.PolicyBarrier
		if policy != nil {
			polName = policy.Name()
		}
		fmt.Fprintf(out, "policy: %s, eff neighbors mean %.2f, drop rate %.2f%%, late drops %d\n",
			polName, res.EffNeighborsMean, res.DropRate*100, res.LateDrops)
		fmt.Fprintf(out, "mixing: %d epochs, spectral gap mean %.4f (min %.4f), neighbor turnover %.4f\n",
			res.Epochs, res.SpectralGapMean, res.SpectralGapMin, res.TurnoverMean)
		if res.Telemetry != nil {
			ts := simulation.Summarize(res.Telemetry)
			fmt.Fprintf(out, "telemetry: queue p95 %.0f, policy wait p95 %.3fs, speculation hit rate %.0f%%\n",
				ts.QueueP95, ts.WaitP95, ts.SpecHitRate*100)
		}
	}
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			return fmt.Errorf("finalizing %s: %w", *traceOut, err)
		}
		fmt.Fprintf(out, "trace: streamed %s (%d events; replay with: jwins-trace replay %s)\n",
			*traceOut, recorder.Len(), *traceOut)
	}
	if *target > 0 {
		if res.RoundsToTarget > 0 {
			fmt.Fprintf(out, "target %.1f%% reached in %d rounds, %s\n",
				*target*100, res.RoundsToTarget, experiments.FormatBytes(res.BytesToTarget))
		} else {
			fmt.Fprintf(out, "target %.1f%% not reached\n", *target*100)
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
