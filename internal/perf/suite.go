// suite.go assembles the standard benchmark suite, the serial-vs-parallel
// determinism check, and the BENCH_*.json artifact format.
package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/simulation"
	"repro/internal/trace"
)

// Bench is one named benchmark: fn runs a single iteration and returns the
// number of simulated scheduler events it processed (0 when not applicable).
type Bench struct {
	Name string
	Fn   func() (int64, error)
}

// Suite returns the standard benchmark list: the engine benchmarks (async at
// parallelism 1 and NumCPU, bracketing the worker pool's win; the dyntopo
// arm adds epoch rotation to the churned configuration) and the JWINS
// hot-path micros.
func Suite() ([]Bench, error) {
	pmax := MaxParallelism()
	benches := []Bench{
		{"engine-sync16", func() (int64, error) { return RunSync16(pmax) }},
		{"engine-async16-p1", func() (int64, error) { return RunAsync16(1) }},
		{fmt.Sprintf("engine-async16-p%d", pmax), func() (int64, error) { return RunAsync16(pmax) }},
		{"engine-asyncchurn16-p1", func() (int64, error) { return RunAsyncChurn16(1) }},
		{fmt.Sprintf("engine-asyncchurn16-p%d", pmax), func() (int64, error) { return RunAsyncChurn16(pmax) }},
		{"engine-asyncdyntopo16-p1", func() (int64, error) { return RunAsyncDynTopo16(1) }},
		{fmt.Sprintf("engine-asyncdyntopo16-p%d", pmax), func() (int64, error) { return RunAsyncDynTopo16(pmax) }},
		{"engine-async256-p1", func() (int64, error) { return RunAsync256(1) }},
		{fmt.Sprintf("engine-async256-p%d", pmax), func() (int64, error) { return RunAsync256(pmax) }},
		{"engine-async1024-p1", func() (int64, error) { return RunAsync1024(1) }},
		{fmt.Sprintf("engine-async1024-p%d", pmax), func() (int64, error) { return RunAsync1024(pmax) }},
		{"engine-async4096-p1", func() (int64, error) { return RunAsync4096(1) }},
		{fmt.Sprintf("engine-async4096-p%d", pmax), func() (int64, error) { return RunAsync4096(pmax) }},
		// Eval-cost bracket: identical 1024-node runs except the eval row
		// scores the full fleet exactly vs a 64-node rotating sample; the
		// ns/op delta is the per-row evaluation cost the sample removes.
		{"engine-async1024-evalexact-p1", func() (int64, error) { return RunAsyncScale(1024, 1, -1) }},
		// The same scale tiers over a JWINS fleet: DWT, top-k selection and
		// the sparse codec join the scheduler on the measured path.
		{"engine-asyncjwins1024-p1", func() (int64, error) {
			return RunAsyncScaleJWINS(1024, 1, ScaleEvalSample)
		}},
		{"engine-asyncjwins4096-p1", func() (int64, error) {
			return RunAsyncScaleJWINS(4096, 1, ScaleEvalSample)
		}},
		// Fleet-construction bracket: build-only, no run. Lazy is the
		// copy-on-write default; eager builds every layer graph up front.
		{"fleet-build-4096-lazy", func() (int64, error) {
			_, _, _, err := ScaleFleet(4096)
			return 0, err
		}},
		{"fleet-build-4096-eager", func() (int64, error) {
			_, _, _, err := ScaleFleetEager(4096)
			return 0, err
		}},
	}
	micro, err := microBenches()
	if err != nil {
		return nil, err
	}
	return append(benches, micro...), nil
}

// microBenches builds the Share/Aggregate micro-benchmarks over persistent
// 100k-parameter JWINS pairs, excluding local training. Aggregate re-merges
// a fixed payload pair so its cost is not polluted by Share's. Two codec
// variants run: flate32 (the paper default; its decode keeps a handful of
// compress/flate-internal allocations per op) and raw32 (zero-allocation
// steady state for the repository's own pipeline).
func microBenches() ([]Bench, error) {
	flatePair, err := microPair("", nil)
	if err != nil {
		return nil, err
	}
	rawPair, err := microPair("-raw32", codec.Raw32{})
	if err != nil {
		return nil, err
	}
	return append(flatePair, rawPair...), nil
}

func microPair(suffix string, fc codec.FloatCodec) ([]Bench, error) {
	const dim = 100_000
	a, b, err := JWINSPairCodec(dim, fc)
	if err != nil {
		return nil, err
	}
	// One node call per op, matching BenchmarkJWINSShare/BenchmarkJWINSAggregate
	// exactly so JSON baselines and benchstat output compare one-to-one.
	wA := PairWeights(1)
	round := 0
	share := Bench{"jwins-share-100k" + suffix, func() (int64, error) {
		round++
		_, _, err := a.Share(round)
		return 0, err
	}}
	if _, _, err := a.Share(0); err != nil {
		return nil, err
	}
	payloadB, _, err := b.Share(0)
	if err != nil {
		return nil, err
	}
	msgsA := map[int][]byte{1: payloadB}
	aggregate := Bench{"jwins-aggregate-100k" + suffix, func() (int64, error) {
		return 0, a.Aggregate(round, wA, msgsA)
	}}
	return []Bench{share, aggregate}, nil
}

// Report is the schema of a BENCH_*.json artifact.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	// GOMAXPROCS is the effective scheduler width — it diverges from NumCPU
	// under cgroup CPU limits or an explicit env override, and parallel
	// engine numbers are only comparable at equal width.
	GOMAXPROCS int  `json:"gomaxprocs"`
	Quick      bool `json:"quick,omitempty"`
	// Telemetry is the engine's own view of the reference async256 serial
	// run (queue depth, policy waits, speculation hit rate), recorded so an
	// anomalous timing regression can be cross-read against scheduler
	// behavior in the same artifact.
	Telemetry *TelemetryContext `json:"telemetry,omitempty"`
	Records   []Record          `json:"records"`
}

// TelemetryContext is the distilled engine-telemetry block of a Report.
type TelemetryContext struct {
	Source      string  `json:"source"` // the configuration probed
	Events      int64   `json:"events"`
	Sends       int64   `json:"sends"`
	BytesTotal  int64   `json:"bytes_total"`
	QueueP95    float64 `json:"queue_p95"`
	WaitP95     float64 `json:"wait_p95_s"`
	SpecHitRate float64 `json:"spec_hit_rate"`
}

// TelemetryProbe executes the async256 reference configuration serially with
// engine telemetry enabled and distills the snapshot. Strictly observational:
// the run it measures is schedule-identical to engine-async256-p1.
func TelemetryProbe() (*TelemetryContext, error) {
	nodes, ds, topo, err := ScaleFleet(256)
	if err != nil {
		return nil, err
	}
	tel := simulation.NewTelemetry()
	eng := &simulation.AsyncEngine{
		Nodes: nodes, Topology: topo, TestSet: ds,
		Config: simulation.AsyncConfig{
			Config:    simulation.Config{Rounds: 4, EvalEvery: 4, EvalNodes: 8, Parallelism: 1},
			Het:       simulation.Heterogeneity{ComputeSpread: 0.3, Seed: Seed},
			Telemetry: tel,
		},
	}
	if _, err := eng.Run(); err != nil {
		return nil, err
	}
	snap := tel.Snapshot()
	sum := simulation.Summarize(snap)
	ctx := &TelemetryContext{
		Source:      "engine-async256-p1",
		Sends:       snap.Counter(simulation.MetricSends),
		BytesTotal:  snap.Counter(simulation.MetricBytesTotal),
		QueueP95:    sum.QueueP95,
		WaitP95:     sum.WaitP95,
		SpecHitRate: sum.SpecHitRate,
	}
	for key, v := range snap.Counters {
		if strings.HasPrefix(key, simulation.MetricEvents+"{") {
			ctx.Events += v
		}
	}
	return ctx, nil
}

// Run executes the suite. quick runs each benchmark once (-benchtime=1x
// semantics, for CI smoke); otherwise iteration counts target ~1s each.
func Run(quick bool, logf func(format string, args ...any)) (*Report, error) {
	benches, err := Suite()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       quick,
	}
	if tel, err := TelemetryProbe(); err == nil {
		rep.Telemetry = tel
	} else if logf != nil {
		logf("telemetry probe failed: %v", err)
	}
	for _, b := range benches {
		iters := 1
		if !quick {
			if iters, err = autoIters(time.Second, b.Fn); err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
		}
		rec, err := measure(b.Name, iters, b.Fn)
		if err != nil {
			return nil, err
		}
		rep.Records = append(rep.Records, rec)
		if logf != nil {
			logf("%-28s %10d it  %14.0f ns/op  %12.1f allocs/op  %14.0f B/op  %s",
				rec.Name, rec.Iters, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp, eventsStr(rec.EventsPerSec))
		}
	}
	return rep, nil
}

func eventsStr(v float64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("%12.0f events/s", v)
}

// WriteJSON writes the report to path.
func (r *Report) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// CheckDeterminism runs the AsyncChurn16 configuration (stragglers, churn,
// drops) and its epoch-rotated dyntopo and bounded-staleness variants
// serially and at every parallelism level up to NumCPU that is worth
// checking, and errors on any divergence in the event trace, byte ledger,
// result rows, or the bytes a streaming recorder emits (each run records its
// schedule through a trace.StreamRecorder, so the streamed .jtb must be
// bit-identical across parallelism levels too). CI fails the bench smoke job
// on a non-nil return.
func CheckDeterminism() error {
	type capture struct {
		trace    []simulation.Event
		result   *simulation.Result
		streamed []byte
	}
	run := func(parallelism int, dyntopo bool, policy simulation.AggregationPolicy) (capture, error) {
		nodes, ds, topo, err := EngineFleet()
		if err != nil {
			return capture{}, err
		}
		if dyntopo {
			topo = DynTopoProvider()
		}
		policyName := trace.PolicyBarrier
		if policy != nil {
			policyName = policy.Name()
		}
		var c capture
		var buf bytes.Buffer
		sr, err := trace.NewStreamRecorder(&buf, trace.Header{
			Nodes: len(nodes), Rounds: 10, Source: trace.SourceSim, Policy: policyName,
		})
		if err != nil {
			return capture{}, err
		}
		eng := &simulation.AsyncEngine{
			Nodes: nodes, Topology: topo, TestSet: ds,
			Config: simulation.AsyncConfig{
				Config:  simulation.Config{Rounds: 10, EvalEvery: 5, Parallelism: parallelism, DropProb: 0.05, FaultSeed: 3},
				Het:     EngineHet(),
				Churn:   EngineChurn(),
				Policy:  policy,
				OnEvent: func(ev simulation.Event) { c.trace = append(c.trace, ev) },
				Record:  sr,
			},
		}
		c.result, err = eng.Run()
		if err != nil {
			return c, err
		}
		if err := sr.Close(); err != nil {
			return c, fmt.Errorf("stream recorder: %w", err)
		}
		c.streamed = buf.Bytes()
		return c, nil
	}
	levels := []int{2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	arms := []struct {
		name    string
		dyntopo bool
		policy  simulation.AggregationPolicy
	}{
		{"static", false, nil},
		{"dyntopo", true, nil},
		{"bounded", false, simulation.BoundedStalenessPolicy{K: 2, Tau: 2}},
	}
	for _, arm := range arms {
		ref, err := run(1, arm.dyntopo, arm.policy)
		if err != nil {
			return fmt.Errorf("%s serial: %w", arm.name, err)
		}
		for _, p := range levels {
			got, err := run(p, arm.dyntopo, arm.policy)
			if err != nil {
				return fmt.Errorf("%s parallelism %d: %w", arm.name, p, err)
			}
			if err := compareCaptures(ref.trace, got.trace, ref.result, got.result); err != nil {
				return fmt.Errorf("%s parallelism %d diverged from serial: %w", arm.name, p, err)
			}
			if !bytes.Equal(ref.streamed, got.streamed) {
				return fmt.Errorf("%s parallelism %d: streamed trace bytes diverge from serial (%d vs %d bytes)",
					arm.name, p, len(got.streamed), len(ref.streamed))
			}
		}
	}
	return nil
}

func compareCaptures(refTrace, gotTrace []simulation.Event, ref, got *simulation.Result) error {
	if len(refTrace) != len(gotTrace) {
		return fmt.Errorf("trace length %d != %d", len(gotTrace), len(refTrace))
	}
	for i := range refTrace {
		a, b := refTrace[i], gotTrace[i]
		if a.Time != b.Time || a.Seq != b.Seq || a.Kind != b.Kind || a.Node != b.Node ||
			a.From != b.From || a.Iter != b.Iter || a.Dropped != b.Dropped {
			return fmt.Errorf("event %d: %+v != %+v", i, b, a)
		}
	}
	if ref.TotalBytes != got.TotalBytes || ref.ModelBytes != got.ModelBytes || ref.MetaBytes != got.MetaBytes {
		return fmt.Errorf("byte ledger (%d,%d,%d) != (%d,%d,%d)",
			got.TotalBytes, got.ModelBytes, got.MetaBytes, ref.TotalBytes, ref.ModelBytes, ref.MetaBytes)
	}
	if ref.SimTime != got.SimTime || !floatEq(ref.FinalAccuracy, got.FinalAccuracy) || !floatEq(ref.FinalLoss, got.FinalLoss) {
		return fmt.Errorf("final metrics differ: (%v,%v,%v) != (%v,%v,%v)",
			got.SimTime, got.FinalAccuracy, got.FinalLoss, ref.SimTime, ref.FinalAccuracy, ref.FinalLoss)
	}
	if len(ref.Rounds) != len(got.Rounds) {
		return fmt.Errorf("row count %d != %d", len(got.Rounds), len(ref.Rounds))
	}
	for i := range ref.Rounds {
		a, b := ref.Rounds[i], got.Rounds[i]
		if a.CumTotalBytes != b.CumTotalBytes || !floatEq(a.TrainLoss, b.TrainLoss) ||
			!floatEq(a.TestAcc, b.TestAcc) || !floatEq(a.MeanAlpha, b.MeanAlpha) {
			return fmt.Errorf("row %d differs: %+v != %+v", i, b, a)
		}
	}
	return nil
}

// floatEq treats NaN == NaN (rows without evaluation carry NaN).
func floatEq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
