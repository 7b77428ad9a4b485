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
//	jwins-bench -exp ext-faults        # message drops, JWINS vs CHOCO
//	jwins-bench -exp ext-asyncchurn    # event-driven stragglers + churn
//	jwins-bench -exp ext-dyntopo       # epoch-randomized topologies at 96-384 nodes
//	jwins-bench -exp ext-scale         # async engine at 256-8192 nodes (sampled eval from 2048)
//	jwins-bench -exp ext-semiasync     # aggregation policies x heterogeneity
//	jwins-bench -exp claims            # the paper's claims (and ext-faults/ext-asyncchurn's), paired over seeds
//	jwins-bench -exp all               # everything, in paper order
//
// Flags: -scale micro|small|paper (default small), -seed N, -out DIR (every
// experiment writes DIR/<name>.csv), -datasets a,b,c (table1/fig4/fig5 only),
// -eval-sample N (ext-scale only). The experiments are
// the registry experiments.Experiments; an unknown name, or a flag that no
// selected experiment reads, is an error before anything runs.
// -cpuprofile / -memprofile write pprof profiles of the run, so regressions
// are diagnosable without editing code:
//
//	jwins-bench -exp table1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

// allExperiments is what -exp all runs: the registry's names, in paper order.
var allExperiments = func() []string {
	names := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		names[i] = e.Name
	}
	return names
}()

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	default:
		fmt.Fprintln(os.Stderr, "jwins-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("jwins-bench", flag.ContinueOnError)
	var (
		expName    = flags.String("exp", "all", "experiment: fig2, fig3, table1, fig5..fig10, ext-*, claims, or all")
		scaleName  = flags.String("scale", "small", "experiment scale: micro, small, or paper")
		seed       = flags.Uint64("seed", 42, "root random seed")
		datasets   = flags.String("datasets", "", "comma-separated dataset filter for table1/fig4/fig5")
		outDir     = flags.String("out", "", "directory for per-experiment CSV files (optional)")
		evalSample = flags.Int("eval-sample", 0, "ext-scale: force this rotating eval subset size on every arm (0 = 8-node sample below 2048 nodes, 64-node sample from 2048)")
		cpuProfile = flags.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flags.String("memprofile", "", "write an allocation profile to this path on exit")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	names := []string{*expName}
	if *expName == "all" {
		names = allExperiments
	}
	for _, name := range names {
		if _, ok := lookup(name); !ok {
			return fmt.Errorf("unknown experiment %q (want one of %s, fig4 or all)", name, strings.Join(allExperiments, ", "))
		}
	}
	var set []string
	flags.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkFlagsRead(names, set); err != nil {
		return err
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
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
	fmt.Fprintf(stdout, "jwins-bench: conv=%s\n", nn.ConvPath())

	opts := experiments.Opts{EvalSample: *evalSample}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}

	for _, name := range names {
		exp, _ := lookup(name)
		start := time.Now()
		table, err := exp.Run(scale, *seed, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(stdout, "=== %s (scale=%s, seed=%d, took %s)\n%s\n", name, scale, *seed, time.Since(start).Round(time.Millisecond), table)
		if *outDir != "" {
			path := filepath.Join(*outDir, name+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				return fmt.Errorf("%s: writing %s: %w", name, path, err)
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
		}
	}
	return nil
}

// lookup finds an experiment in the registry; fig4 is table1 (Figure 4 is
// Table I's learning curves).
func lookup(name string) (experiments.Experiment, bool) {
	if name == "fig4" {
		name = "table1"
	}
	i := slices.IndexFunc(experiments.Experiments, func(e experiments.Experiment) bool { return e.Name == name })
	if i < 0 {
		return experiments.Experiment{}, false
	}
	return experiments.Experiments[i], true
}

// checkFlagsRead rejects a set flag (set holds flag names) that some
// experiment reads but none in names does, so a run never silently ignores
// one.
func checkFlagsRead(names, set []string) error {
	for _, flagName := range set {
		var readers []string
		for _, e := range experiments.Experiments {
			if slices.Contains(e.Reads, flagName) {
				readers = append(readers, e.Name)
			}
		}
		if len(readers) == 0 {
			continue
		}
		if !slices.ContainsFunc(names, func(name string) bool {
			e, _ := lookup(name)
			return slices.Contains(e.Reads, flagName)
		}) {
			return fmt.Errorf("-%s is read only by -exp %s, which this run does not include",
				flagName, strings.Join(readers, "/"))
		}
	}
	return nil
}
