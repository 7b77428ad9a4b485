// Command jwins-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	jwins-bench -exp table1            # Table I + Figure 4 (all 5 datasets)
//	jwins-bench -exp fig2              # wavelet vs FFT vs random reconstruction
//	jwins-bench -exp fig3              # randomized cut-off in action
//	jwins-bench -exp fig5              # run-to-target-accuracy comparison
//	jwins-bench -exp fig6              # JWINS vs CHOCO at 20%/10% budgets
//	jwins-bench -exp fig7              # dynamic vs static topologies
//	jwins-bench -exp fig8              # ablation study
//	jwins-bench -exp fig9              # metadata compression
//	jwins-bench -exp fig10             # scalability sweep
//	jwins-bench -exp ext-powergossip   # JWINS vs the POWERGOSSIP low-rank baseline
//	jwins-bench -exp ext-adaptive      # band-adaptive vs default selection
//	jwins-bench -exp ext-faults        # message drops and churn, JWINS vs CHOCO
//	jwins-bench -exp ext-asyncchurn    # event-driven stragglers + churn
//	jwins-bench -exp ext-replay        # trace record/replay parity + staleness
//	jwins-bench -exp ext-dyntopo       # epoch-randomized topologies at 96-384 nodes
//	jwins-bench -exp ext-scale         # async engine at 256-8192 nodes (sampled eval from 2048)
//	jwins-bench -exp ext-semiasync     # aggregation policies x heterogeneity
//	jwins-bench -exp all               # everything, in paper order
//
// Flags: -scale micro|small|paper (default small), -seed N, -out DIR,
// -datasets a,b,c (table1/fig4/fig5 only), -eval-sample N and -eval-rotate K
// (ext-scale only). Setting a flag that no selected experiment reads is an
// error. -cpuprofile / -memprofile write pprof profiles of the run, so
// regressions are diagnosable without editing code:
//
//	jwins-bench -exp table1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/nn"
)

// allExperiments is what -exp all runs, in paper order.
var allExperiments = []string{"fig2", "fig3", "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"ext-powergossip", "ext-adaptive", "ext-faults", "ext-asyncchurn", "ext-replay", "ext-dyntopo", "ext-scale", "ext-semiasync"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jwins-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expName    = flag.String("exp", "all", "experiment: fig2, fig3, table1, fig5..fig10, ext-*, or all")
		scaleName  = flag.String("scale", "small", "experiment scale: micro, small, or paper")
		seed       = flag.Uint64("seed", 42, "root random seed")
		datasets   = flag.String("datasets", "", "comma-separated dataset filter for table1/fig4/fig5")
		outDir     = flag.String("out", "", "directory for per-experiment CSV files (optional)")
		evalSample = flag.Int("eval-sample", 0, "ext-scale: force this rotating eval subset size on every arm (0 = exact below 2048 nodes, 64-node sample above)")
		evalRotate = flag.Int("eval-rotate", 0, "ext-scale: advance the eval sampling window every k eval rows (0/1 = every row)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this path on exit")
	)
	flag.Parse()
	names := []string{*expName}
	if *expName == "all" {
		names = allExperiments
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkFlagsRead(names, set); err != nil {
		return err
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jwins-bench: memprofile:", err)
				return
			}
			defer f.Close()
			// The GC must run before the heap is profiled: WriteHeapProfile
			// reports the live set as of the last collection, so skipping it
			// snapshots whatever garbage the final iteration left and the
			// profile overstates retained memory by that noise.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "jwins-bench: memprofile:", err)
			}
		}()
	}

	// Timings from two hosts compare only if they ran the same kernels.
	fmt.Printf("jwins-bench: conv=%s\n", nn.ConvPath())

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	var filter []string
	if *datasets != "" {
		filter = strings.Split(*datasets, ",")
	}

	for _, name := range names {
		start := time.Now()
		var result fmt.Stringer
		switch name {
		case "fig2":
			result, err = experiments.Fig2(scale, *seed)
		case "fig3":
			result, err = experiments.Fig3(scale, *seed)
		case "table1", "fig4":
			result, err = experiments.Table1(scale, *seed, filter)
		case "fig5":
			result, err = experiments.Fig5(scale, *seed, filter)
		case "fig6":
			result, err = experiments.Fig6(scale, *seed)
		case "fig7":
			result, err = experiments.Fig7(scale, *seed)
		case "fig8":
			result, err = experiments.Fig8(scale, *seed)
		case "fig9":
			result, err = experiments.Fig9(scale, *seed)
		case "fig10":
			result, err = experiments.Fig10(scale, *seed)
		case "ext-powergossip":
			result, err = experiments.ExtPowerGossip(scale, *seed)
		case "ext-adaptive":
			result, err = experiments.ExtAdaptive(scale, *seed)
		case "ext-faults":
			result, err = experiments.ExtFaults(scale, *seed)
		case "ext-asyncchurn":
			result, err = experiments.ExtAsyncChurn(scale, *seed)
		case "ext-replay":
			result, err = experiments.ExtReplay(scale, *seed)
		case "ext-dyntopo":
			result, err = experiments.ExtDynTopo(scale, *seed)
		case "ext-scale":
			result, err = experiments.ExtScaleWith(scale, *seed,
				experiments.ExtScaleOpts{EvalSample: *evalSample, EvalRotate: *evalRotate})
		case "ext-semiasync":
			result, err = experiments.ExtSemiAsync(scale, *seed)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("=== %s (scale=%s, seed=%d, took %s)\n%s\n", name, scale, *seed, time.Since(start).Round(time.Millisecond), result)
		if *outDir != "" {
			if c, ok := result.(experiments.CSVer); ok {
				path := filepath.Join(*outDir, name+".csv")
				if err := os.WriteFile(path, []byte(c.CSV()), 0o644); err != nil {
					return fmt.Errorf("%s: writing %s: %w", name, path, err)
				}
				fmt.Printf("wrote %s\n\n", path)
			}
		}
	}
	return nil
}

// flagReaders names, for each experiment-specific flag, the experiments that
// read it.
var flagReaders = map[string][]string{
	"datasets":    {"table1", "fig4", "fig5"},
	"eval-sample": {"ext-scale"},
	"eval-rotate": {"ext-scale"},
}

// checkFlagsRead rejects a set flag (set holds flag names) that no
// experiment in names reads, so a run never silently ignores one.
func checkFlagsRead(names, set []string) error {
	for _, flagName := range set {
		readers, ok := flagReaders[flagName]
		if !ok {
			continue
		}
		if !slices.ContainsFunc(names, func(name string) bool { return slices.Contains(readers, name) }) {
			return fmt.Errorf("-%s is read only by -exp %s, which this run does not include",
				flagName, strings.Join(readers, "/"))
		}
	}
	return nil
}
