package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/experiments"
	"repro/internal/simulation"
	"repro/internal/trace"
)

// asCommand makes the test binary behave as the benchmark command, so the
// tests can run it — and it can run its own children — without a build step.
const asCommand = "BENCHMARK_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// command runs the benchmark with the given arguments and returns its
// standard output and exit code.
func command(t *testing.T, env []string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), asCommand+"=1"), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out) + stderr.String(), ee.ExitCode()
		}
		t.Fatal(err)
	}
	return string(out), 0
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCommand holds BENCHMARK.json and the command's own
// tables in agreement: same workloads and reasons, same metrics, units,
// directions and bounds.
func TestManifestMatchesCommand(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the command %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s metric name %q does not match %v", kind, g.Name, nameRE)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

// result is the command's last output line.
type result struct {
	Correct   *bool                  `json:"correct"`
	Attempted *int                   `json:"attempted"`
	Failed    *int                   `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if r.Correct == nil || r.Attempted == nil || r.Failed == nil || r.Metrics == nil {
		t.Fatalf("result lacks a key: %s", lines[len(lines)-1])
	}
	return r
}

// TestSmoke runs every workload at micro size in both modes and checks that
// every metric BENCHMARK.json names comes out exactly once, with its unit,
// that nothing fails, and that the traced run's instrument-health metrics are
// reported and sane.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		for mode, want := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			out, code := command(t, nil, "--workload", w.Name, "--seed", "7", "--seconds", "0.2", "--trace", strconv.Itoa(mode), "-smoke")
			if code != 0 {
				t.Fatalf("%s --trace %d: exit code %d\n%s", w.Name, mode, code, out)
			}
			r := lastLine(t, out)
			if !*r.Correct || *r.Failed != 0 || *r.Attempted < 1 {
				t.Errorf("%s --trace %d: correct=%v attempted=%d failed=%d\n%s", w.Name, mode, *r.Correct, *r.Attempted, *r.Failed, out)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s --trace %d: %d metrics, want %d", w.Name, mode, len(r.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := r.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s --trace %d: metric %s: got %+v (present %v), want unit %s", w.Name, mode, d.Name, got, ok, d.Unit)
				}
				// The report for people names every metric too.
				if n := strings.Count(out, "  "+d.Name+" "); n != 1 {
					t.Errorf("%s --trace %d: report prints %s %d times", w.Name, mode, d.Name, n)
				}
			}
			if mode == 1 {
				if _, ok := r.Metrics["trace_overhead"]; !ok {
					t.Errorf("%s: trace_overhead is not reported", w.Name)
				}
				// The gap compares probe timings with span timings taken
				// moments apart, so a burst of host noise between the two can
				// inflate it at micro size: it must hold on one of three runs.
				gap := r.Metrics["attribution_gap"].Value
				for retry := 0; gap > 0.10 && retry < 2; retry++ {
					out, _ := command(t, nil, "--workload", w.Name, "--seed", "7", "--trace", "1", "-smoke")
					gap = lastLine(t, out).Metrics["attribution_gap"].Value
				}
				if gap > 0.10 {
					t.Errorf("%s: attribution_gap %.3f is over 10%%", w.Name, gap)
				}
			}
		}
	}
}

// TestRefusesOversubscription: timings taken with more threads than CPUs are
// not comparable, so the command must not produce any.
func TestRefusesOversubscription(t *testing.T) {
	env := []string{"GOMAXPROCS=" + strconv.Itoa(runtime.NumCPU()+1)}
	out, code := command(t, env, "--workload", "cifar-jwins", "-smoke")
	if code == 0 || !strings.Contains(out, "GOMAXPROCS") {
		t.Fatalf("exit code %d, output %q", code, out)
	}
}

// TestHarnessParity: the benchmark's own builders, called as the timed runs
// call them, must yield what experiments.Run yields on the equivalent RunSpec,
// so that the benchmark measures what jwins-train and jwins-bench users run.
// A sync workload is such a RunSpec at --seed = fixedSeed (at other seeds only
// the graph differs); scale-async is one at every --seed.
func TestHarnessParity(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
		spec func(sz size, seed uint64) experiments.RunSpec
	}{
		{"cifar-jwins", fixedSeed, func(sz size, seed uint64) experiments.RunSpec {
			w, err := experiments.NewWorkload("cifar10", sz.scale, sz.nodes, seed)
			if err != nil {
				t.Fatal(err)
			}
			return experiments.RunSpec{Workload: w, Algo: experiments.AlgoSpec{Kind: experiments.AlgoJWINS}}
		}},
		{"scale-async", 11, func(sz size, seed uint64) experiments.RunSpec {
			w, err := experiments.ScaleWorkload(sz.nodes, seed)
			if err != nil {
				t.Fatal(err)
			}
			return experiments.RunSpec{
				Workload: w, Algo: experiments.AlgoSpec{Kind: experiments.AlgoJWINS, Codec: codec.Raw32{}},
				Async: true, Dynamic: true, MixingEvery: asyncMixingEvery, EvalSample: asyncEvalSample,
				Het:           simulation.Heterogeneity{ComputeSpread: asyncComputeSpread},
				ChurnFraction: asyncChurnFraction,
				Recorder:      trace.NewRecorder(trace.Header{Nodes: sz.nodes, Rounds: sz.rounds, Source: trace.SourceSim, Policy: trace.PolicyBarrier}),
			}
		}},
	}
	for _, c := range cases {
		wl := findWorkload(c.name)
		b, err := wl.build(wl, wl.smoke, c.seed, hooks{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.run()
		b.cleanup()
		if err != nil {
			t.Fatal(err)
		}
		spec := c.spec(wl.smoke, c.seed)
		spec.Rounds, spec.Seed = wl.smoke.rounds, fixedSeed
		want, err := experiments.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalBytes != want.TotalBytes || got.FinalAccuracy != want.FinalAccuracy || got.SimTime != want.SimTime {
			t.Errorf("%s: builder gives bytes=%d acc=%v sim=%v, experiments.Run gives bytes=%d acc=%v sim=%v",
				c.name, got.TotalBytes, got.FinalAccuracy, got.SimTime, want.TotalBytes, want.FinalAccuracy, want.SimTime)
		}
	}
}
