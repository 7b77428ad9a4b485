// Command benchmark is the repository's benchmark: four named workloads,
// end-to-end metrics from default-parallelism runs, and per-layer metrics
// from a wrapper-traced serial run. BENCHMARK.json at the repository root
// names it; README.md here explains the workloads, metrics and output.
//
//	go run -C benchmark repro/benchmark --workload cifar-jwins --seed 42 --seconds 15 --trace 0
//
// One invocation measures one workload. Every run is a fresh child process of
// this command, one at a time, so each pays cold set-up and has its own peak
// memory. With --trace 0 it repeats the default run until the workload's
// share of --seconds has passed (twice at least) and reports the end-to-end
// metrics: wall_s as the fastest repeat, set-up time and memory as medians; with
// --trace 1 it makes one default, one serial and one traced run and reports
// the per-layer metrics. The last line of standard output is the result as
// one JSON object; the lines before it are the report for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

const (
	minRepeats    = 2 // e2e runs per invocation, at least
	extraSetups   = 8 // set-up-only runs per invocation: setup_s is short, so noisy
	maxChildProcs = 4 // children run with GOMAXPROCS = min(nproc, 4)
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: cifar-jwins, movielens-jwins, movielens-full or scale-async")
		seed    = flag.Uint64("seed", 42, "seed the workload's input is made from")
		seconds = flag.Float64("seconds", 15, "with -trace 0, the measuring window: the run is repeated until the workload's multiple of it has passed")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics from default runs; 1: per-layer metrics from a serial and a traced run")
		smoke   = flag.Bool("smoke", false, "micro sizes: same code paths and metric names in a few seconds")
		child   = flag.String("child", "", "internal: perform one run in this mode and print its record")
	)
	flag.Parse()
	wl := findWorkload(*name)
	if wl == nil {
		fatalf("unknown workload %q", *name)
	}
	sz := wl.full
	if *smoke {
		sz = wl.smoke
	}
	if *child != "" {
		rec, err := runChild(wl, sz, *seed, *child)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fatalf("%v", err)
		}
		return
	}

	procs := min(runtime.NumCPU(), maxChildProcs)
	if env, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil {
		if env > runtime.NumCPU() {
			fatalf("GOMAXPROCS=%d is above the %d CPUs of this host: timings would measure oversubscription", env, runtime.NumCPU())
		}
		procs = env
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	p := &parent{wl: wl, sz: sz, seed: *seed, smoke: *smoke, exe: exe, procs: procs}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
		runtime.NumCPU(), procs, runtime.Version(), commit(), *seed)

	var metrics map[string]metricValue
	if *traced == 0 {
		metrics = p.endToEnd(time.Duration(*seconds * wl.windows * float64(time.Second)))
	} else {
		metrics = p.perLayer()
	}
	for _, f := range p.failures {
		fmt.Println("FAILED", f)
	}
	result := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{p.failed == 0, p.attempted, p.failed, metrics}
	if err := json.NewEncoder(os.Stdout).Encode(result); err != nil {
		fatalf("%v", err)
	}
	if p.failed > 0 {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parent runs the children of one invocation and keeps the failure account:
// an operation is one node-round, and a run that aborts or fails a check
// fails all of its operations.
type parent struct {
	wl    *workload
	sz    size
	seed  uint64
	smoke bool
	exe   string
	procs int

	first     *runRecord // the reference for the determinism check
	attempted int
	failed    int
	failures  []string
}

// run performs one run in a fresh child process and checks it.
func (p *parent) run(mode string) *runRecord {
	ops := p.sz.nodes * p.sz.rounds
	if mode == modeSetup {
		ops = 0 // runs nothing, so attempts nothing
	}
	p.attempted += ops
	args := []string{"-child", mode, "-workload", p.wl.name, "-seed", strconv.FormatUint(p.seed, 10)}
	if p.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(p.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(p.procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	rec := new(runRecord)
	if err == nil {
		err = json.Unmarshal(out, rec)
	}
	if err != nil {
		p.failed += ops
		p.failures = append(p.failures, fmt.Sprintf("%s run aborted: %v", mode, err))
		return nil
	}
	if mode == modeSetup {
		return rec
	}
	bad := rec.Failures
	if p.first == nil {
		p.first = rec
	} else if rec.Out != p.first.Out {
		bad = append(bad, fmt.Sprintf("determinism: outputs %+v differ from the %s run's %+v", rec.Out, p.first.Mode, p.first.Out))
	}
	if len(bad) > 0 {
		p.failed += ops
		for _, f := range bad {
			p.failures = append(p.failures, mode+" run: "+f)
		}
	}
	return rec
}

func (p *parent) describe(rec *runRecord) {
	fmt.Printf("workload %s: nodes=%d rounds=%d params=%d (%d node-rounds per run)\n",
		p.wl.name, p.sz.nodes, p.sz.rounds, rec.Params, rec.Ops)
}

// endToEnd repeats the default run and reports the end-to-end metrics.
func (p *parent) endToEnd(window time.Duration) map[string]metricValue {
	var runs []*runRecord
	for start := time.Now(); len(runs) < minRepeats || time.Since(start) < window; {
		rec := p.run(modeE2E)
		if rec == nil {
			return nil
		}
		runs = append(runs, rec)
	}
	p.describe(runs[0])
	var setups, walls, peaks, toTarget []float64
	for _, r := range runs {
		setups, walls, peaks = append(setups, r.SetupS), append(walls, r.WallS), append(peaks, r.PeakMB)
		toTarget = append(toTarget, r.TargetWallS)
	}
	for i := 0; i < extraSetups; i++ {
		if rec := p.run(modeSetup); rec != nil {
			setups = append(setups, rec.SetupS)
		}
	}
	out := runs[0].Out
	samples := map[string][]float64{"setup_s": setups, "wall_s": walls, "peak_rss_mb": peaks}
	exact := map[string]float64{"bytes_total": float64(out.BytesTotal), "sim_s": out.SimS, "final_acc": out.FinalAcc}

	fmt.Printf("end-to-end, %d default runs (final loss %.4f):\n", len(runs), out.FinalLoss)
	metrics := map[string]metricValue{}
	for _, d := range endToEnd {
		v, timed := samples[d.name]
		if !timed {
			metrics[d.name] = metricValue{exact[d.name], d.unit}
			fmt.Printf("  %-12s %14.6g %-5s exact for the seed\n", d.name, exact[d.name], d.unit)
			continue
		}
		// Other tenants of the host only ever add time to a run, so the fastest
		// repeat is the steadiest estimate of the program's own time
		// (README.md, "Bounds").
		value, how := median(v), "median"
		if d.name == "wall_s" {
			value, how = slices.Min(v), "fastest"
		}
		metrics[d.name] = metricValue{value, d.unit}
		note := ""
		if spread(v) > d.bound {
			// Wider than the bound: a difference of that size between two
			// commits cannot be told from noise in this sample.
			note = " unresolved"
		}
		fmt.Printf("  %-12s %14.6g %-5s %s of n=%d, min %.6g median %.6g max %.6g spread %.1f%% (bound %.0f%%)%s  samples %.4g\n",
			d.name, value, d.unit, how, len(v), slices.Min(v), median(v), slices.Max(v), 100*spread(v), 100*d.bound, note, v)
	}
	if out.TargetRound > 0 {
		fmt.Printf("to target accuracy %.2f: reached at round %d, %d bytes, %.6g simulated s, %.6g host s (median of n=%d, min %.6g max %.6g)\n",
			p.sz.target, out.TargetRound, out.TargetBytes, out.TargetSimS, median(toTarget), len(toTarget), slices.Min(toTarget), slices.Max(toTarget))
	}
	return metrics
}

// perLayer makes one default, one serial and one traced run and reports the
// per-layer metrics.
func (p *parent) perLayer() map[string]metricValue {
	e2e, serial, traced := p.run(modeE2E), p.run(modeSerial), p.run(modeTraced)
	if e2e == nil || serial == nil || traced == nil {
		return nil
	}
	p.describe(traced)
	m := traced.Layer
	crossRunMetrics(m, e2e, serial, traced)
	fmt.Printf("walls: default %.3f s, serial %.3f s, traced %.3f s\n", e2e.WallS, serial.WallS, traced.WallS)
	fmt.Println("spans of the traced run (name < parent, busy, calls):")
	for _, s := range traced.Spans {
		fmt.Printf("  %-18s < %-18s %10.4f s %9d\n", s.Name, s.Parent, float64(s.BusyNs)/1e9, s.Calls)
	}
	fmt.Println("per-layer:")
	metrics := map[string]metricValue{}
	for _, d := range perLayer {
		metrics[d.name] = metricValue{m[d.name], d.unit}
		fmt.Printf("  %-36s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	return metrics
}

// commit is the VCS revision the binary was built from, when the toolchain
// stamped one (go run does not).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
