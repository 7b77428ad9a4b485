// Package perf is the repository's performance harness: canonical benchmark
// fleets (shared with bench_test.go so `go test -bench` and `jwins-bench
// -bench-json` measure the same workloads), a self-contained measurement
// loop reporting ns/op, allocs/op, bytes/op, and simulated events/sec, a
// serial-vs-parallel determinism check, and a JSON writer for committed
// BENCH_*.json baselines (compare across PRs with benchstat or jq).
package perf

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/vec"
)

// Seed is the root seed of every perf fleet (the historical bench_test seed).
const Seed = 42

// MaxParallelism is the pool width of the "pmax" benchmark arms: NumCPU, but
// at least 2 so single-core machines still exercise the parallel code path.
func MaxParallelism() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// EngineFleet builds the canonical 16-node full-sharing benchmark fleet over
// a 4-regular graph on the standard small non-IID image task.
func EngineFleet() ([]core.Node, *datasets.Dataset, topology.Provider, error) {
	const n = 16
	rng := vec.NewRNG(Seed)
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Channels: 1, Height: 8, Width: 8,
		TrainPerClass: 40, TestPerClass: 10,
	}, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	parts, err := datasets.PartitionShards(ds, n, 2, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := core.TrainOpts{LR: 0.05, LocalSteps: 2}
	nodes := make([]core.Node, n)
	for i := range nodes {
		nodeRNG := rng.Split()
		model := nn.NewMLP(64, 24, 4, nodeRNG)
		loader := datasets.NewLoader(ds, parts[i], 8, nodeRNG.Split())
		nodes[i], err = core.NewFullSharing(i, model, loader, opts, codec.Raw32{})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	g, err := topology.Regular(n, 4, vec.NewRNG(Seed^1))
	if err != nil {
		return nil, nil, nil, err
	}
	return nodes, ds, topology.NewStatic(g), nil
}

// scaleFixtures memoizes the dataset synthesis behind ScaleFleet per node
// count, mirroring experiments' workload cache: repeated benchmark
// iterations (and the lazy-vs-eager fleet-build rows) share one read-only
// dataset and partition instead of re-synthesizing per call.
var scaleFixtures = struct {
	sync.Mutex
	m map[int]*scaleFixture
}{m: map[int]*scaleFixture{}}

type scaleFixture struct {
	ds    *datasets.Dataset
	parts [][]int
}

func scaleFixtureFor(n int) (*scaleFixture, error) {
	scaleFixtures.Lock()
	defer scaleFixtures.Unlock()
	if f, ok := scaleFixtures.m[n]; ok {
		return f, nil
	}
	rng := vec.NewRNG(Seed)
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Channels: 1, Height: 8, Width: 8,
		TrainPerClass: n, TestPerClass: 8,
	}, rng)
	if err != nil {
		return nil, err
	}
	parts, err := datasets.PartitionShards(ds, n, 2, rng)
	if err != nil {
		return nil, err
	}
	f := &scaleFixture{ds: ds, parts: parts}
	scaleFixtures.m[n] = f
	return f, nil
}

// ScaleFleet builds an n-node full-sharing raw32 fleet over a 4-regular
// graph on a deliberately lean task (8×8 single-channel 4-class images, one
// sample per class per node, a 64→16→4 MLP), so scheduler cost — not SGD —
// dominates. The fixture of the engine-async rows; mirrors
// experiments.ScaleWorkload, including its copy-on-write models: each node
// gets an nn.Lazy wrapper over shared initial weights, so construction cost
// is ~1 model regardless of n.
func ScaleFleet(n int) ([]core.Node, *datasets.Dataset, topology.Provider, error) {
	return scaleFleet(n, true)
}

// ScaleFleetEager is ScaleFleet with every node's layer graph built up
// front — the baseline of the fleet-build benchmark rows. Fleets behave
// bit-identically either way.
func ScaleFleetEager(n int) ([]core.Node, *datasets.Dataset, topology.Provider, error) {
	return scaleFleet(n, false)
}

func scaleFleet(n int, lazy bool) ([]core.Node, *datasets.Dataset, topology.Provider, error) {
	fix, err := scaleFixtureFor(n)
	if err != nil {
		return nil, nil, nil, err
	}
	// A dedicated RNG stream for the fleet: the dataset RNG lives inside the
	// memoized fixture, so node seeds must not depend on whether this call
	// hit the cache.
	rng := vec.NewRNG(Seed ^ 0x666c65) // "fle"
	template := nn.NewMLP(64, 16, 4, rng.Split())
	initial := make([]float64, template.ParamCount())
	template.CopyParams(initial)
	opts := core.TrainOpts{LR: 0.05, LocalSteps: 2}
	nodes := make([]core.Node, n)
	for i := range nodes {
		nodeRNG := rng.Split()
		// Same split discipline as experiments.BuildFleet: the model owns a
		// dedicated split so loader seeds are independent of when — or
		// whether — the layer graph is built.
		modelRNG := nodeRNG.Split()
		var model nn.Trainable
		if lazy {
			model = nn.NewLazy(len(initial), initial, func() nn.Trainable {
				return nn.NewMLP(64, 16, 4, modelRNG)
			})
		} else {
			m := nn.NewMLP(64, 16, 4, modelRNG)
			m.SetParams(initial)
			model = m
		}
		loader := datasets.NewLoader(fix.ds, fix.parts[i], 4, nodeRNG.Split())
		nodes[i], err = core.NewFullSharing(i, model, loader, opts, codec.Raw32{})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	g, err := topology.Regular(n, 4, vec.NewRNG(Seed^1))
	if err != nil {
		return nil, nil, nil, err
	}
	return nodes, fix.ds, topology.NewStatic(g), nil
}

// ScaleFleetJWINS builds an n-node JWINS raw32 fleet on the same lean scale
// task, partitions, and RNG discipline as ScaleFleet (lazy copy-on-write
// models included) — the fixture of the engine-asyncjwins rows, which put
// the JWINS share/aggregate path inside a full scheduler run.
func ScaleFleetJWINS(n int) ([]core.Node, *datasets.Dataset, topology.Provider, error) {
	fix, err := scaleFixtureFor(n)
	if err != nil {
		return nil, nil, nil, err
	}
	// Same dedicated fleet stream as scaleFleet, so JWINS rows and
	// full-sharing rows run over identically seeded models and loaders.
	rng := vec.NewRNG(Seed ^ 0x666c65) // "fle"
	template := nn.NewMLP(64, 16, 4, rng.Split())
	initial := make([]float64, template.ParamCount())
	template.CopyParams(initial)
	opts := core.TrainOpts{LR: 0.05, LocalSteps: 2}
	cfg := core.DefaultJWINSConfig()
	cfg.FloatCodec = codec.Raw32{}
	nodes := make([]core.Node, n)
	for i := range nodes {
		nodeRNG := rng.Split()
		modelRNG := nodeRNG.Split()
		model := nn.NewLazy(len(initial), initial, func() nn.Trainable {
			return nn.NewMLP(64, 16, 4, modelRNG)
		})
		loader := datasets.NewLoader(fix.ds, fix.parts[i], 4, nodeRNG.Split())
		nodes[i], err = core.NewJWINS(i, model, loader, opts, cfg, nodeRNG.Split())
		if err != nil {
			return nil, nil, nil, err
		}
	}
	g, err := topology.Regular(n, 4, vec.NewRNG(Seed^1))
	if err != nil {
		return nil, nil, nil, err
	}
	return nodes, fix.ds, topology.NewStatic(g), nil
}

// RunAsyncScaleJWINS is RunAsyncScale over a JWINS fleet (evalSample > 0
// scores a seeded rotating subset, else the seeded 8-node cap).
func RunAsyncScaleJWINS(n, parallelism, evalSample int) (int64, error) {
	nodes, ds, topo, err := ScaleFleetJWINS(n)
	if err != nil {
		return 0, err
	}
	cfg := simulation.Config{
		Rounds: 4, EvalEvery: 4, EvalNodes: 8,
		EvalSeed: Seed, Parallelism: parallelism,
	}
	if evalSample > 0 {
		cfg.EvalSample = evalSample
	}
	var events int64
	eng := &simulation.AsyncEngine{
		Nodes: nodes, Topology: topo, TestSet: ds,
		Config: simulation.AsyncConfig{
			Config:  cfg,
			Het:     simulation.Heterogeneity{ComputeSpread: 0.3, Seed: Seed},
			OnEvent: func(simulation.Event) { events++ },
		},
	}
	if _, err := eng.Run(); err != nil {
		return 0, err
	}
	return events, nil
}

// ScaleEvalSample is the rotating eval subset size of the 1024/4096-node
// benchmark arms, matching the ext-scale sweep's sampled tier.
const ScaleEvalSample = 64

// RunAsync256 executes one iteration of the 256-node event-driven benchmark
// (heterogeneous profiles, 4 iterations per node, one final eval over a
// seeded 8-node subset) and returns the number of scheduler events processed.
func RunAsync256(parallelism int) (int64, error) {
	return RunAsyncScale(256, parallelism, 0)
}

// RunAsync1024 is the 1024-node tier with sampled rotating evaluation
// (ScaleEvalSample nodes per eval row).
func RunAsync1024(parallelism int) (int64, error) {
	return RunAsyncScale(1024, parallelism, ScaleEvalSample)
}

// RunAsync4096 is the 4096-node tier with sampled rotating evaluation.
func RunAsync4096(parallelism int) (int64, error) {
	return RunAsyncScale(4096, parallelism, ScaleEvalSample)
}

// RunAsyncScale executes one iteration of the n-node event-driven benchmark
// (heterogeneous profiles, 4 iterations per node, one eval row) and returns
// the number of scheduler events processed. evalSample > 0 scores a seeded
// rotating subset of that many nodes per eval row; evalSample == 0 keeps the
// historical seeded 8-node cap; evalSample < 0 evaluates the whole fleet
// exactly (the eval-cost suite rows difference full-exact vs sampled).
func RunAsyncScale(n, parallelism, evalSample int) (int64, error) {
	nodes, ds, topo, err := ScaleFleet(n)
	if err != nil {
		return 0, err
	}
	cfg := simulation.Config{
		Rounds: 4, EvalEvery: 4, EvalNodes: 8,
		EvalSeed: Seed, Parallelism: parallelism,
	}
	switch {
	case evalSample > 0:
		cfg.EvalSample = evalSample
	case evalSample < 0:
		cfg.EvalNodes = 0 // exact evaluation over the whole fleet
	}
	var events int64
	eng := &simulation.AsyncEngine{
		Nodes: nodes, Topology: topo, TestSet: ds,
		Config: simulation.AsyncConfig{
			Config:  cfg,
			Het:     simulation.Heterogeneity{ComputeSpread: 0.3, Seed: Seed},
			OnEvent: func(simulation.Event) { events++ },
		},
	}
	if _, err := eng.Run(); err != nil {
		return 0, err
	}
	return events, nil
}

// EngineChurn is the churn trace used by the AsyncChurn16 benchmark.
func EngineChurn() []simulation.ChurnEvent {
	return simulation.GenerateChurn(16, 0.25, 0.02, 0.15, 0.05, Seed)
}

// EngineHet is the straggler distribution used by the AsyncChurn16 benchmark.
func EngineHet() simulation.Heterogeneity {
	return simulation.Heterogeneity{ComputeSpread: 0.5, Seed: Seed}
}

// RunSync16 executes one iteration of the synchronous engine benchmark and
// returns the number of simulated node operations (train+share and aggregate
// per node per round).
func RunSync16(parallelism int) (int64, error) {
	nodes, ds, topo, err := EngineFleet()
	if err != nil {
		return 0, err
	}
	eng := &simulation.Engine{
		Nodes: nodes, Topology: topo, TestSet: ds,
		Config: simulation.Config{Rounds: 10, EvalEvery: 10, Parallelism: parallelism},
	}
	res, err := eng.Run()
	if err != nil {
		return 0, err
	}
	return 2 * int64(len(nodes)) * int64(len(res.Rounds)), nil
}

// RunAsync16 executes one iteration of the event-driven engine benchmark
// (homogeneous profiles, no churn) and returns the number of scheduler
// events processed.
func RunAsync16(parallelism int) (int64, error) {
	return runAsync(parallelism, nil, nil)
}

// RunAsyncChurn16 adds the straggler tail and 25% churn.
func RunAsyncChurn16(parallelism int) (int64, error) {
	het := EngineHet()
	return runAsync(parallelism, &het, EngineChurn())
}

// DynTopoEpochSec is the rotation cadence of the dynamic-topology benchmark
// arm: roughly two benchmark iterations per epoch under the default time
// model, so a 10-iteration run crosses several boundaries.
const DynTopoEpochSec = 0.05

// DynTopoProvider builds the epoch-rotated topology of the AsyncDynTopo16
// benchmark: deterministic random 4-regular graphs per epoch.
func DynTopoProvider() topology.Provider {
	return topology.NewEpochProvider(topology.NewSeededDynamic(16, 4, Seed^1), 16, DynTopoEpochSec)
}

// RunAsyncDynTopo16 is RunAsyncChurn16 over the epoch-rotated topology: the
// boundary work (graph regeneration, spectral gap, state-sync sends, buffer
// re-keying) joins the measured path.
func RunAsyncDynTopo16(parallelism int) (int64, error) {
	het := EngineHet()
	return runAsyncOn(parallelism, &het, EngineChurn(), DynTopoProvider())
}

func runAsync(parallelism int, het *simulation.Heterogeneity, churn []simulation.ChurnEvent) (int64, error) {
	return runAsyncOn(parallelism, het, churn, nil)
}

func runAsyncOn(parallelism int, het *simulation.Heterogeneity, churn []simulation.ChurnEvent, topo topology.Provider) (int64, error) {
	nodes, ds, defaultTopo, err := EngineFleet()
	if err != nil {
		return 0, err
	}
	if topo == nil {
		topo = defaultTopo
	}
	var events int64
	cfg := simulation.AsyncConfig{
		Config:  simulation.Config{Rounds: 10, EvalEvery: 10, Parallelism: parallelism},
		Churn:   churn,
		OnEvent: func(simulation.Event) { events++ },
	}
	if het != nil {
		cfg.Het = *het
	}
	eng := &simulation.AsyncEngine{Nodes: nodes, Topology: topo, TestSet: ds, Config: cfg}
	if _, err := eng.Run(); err != nil {
		return 0, err
	}
	return events, nil
}

// JWINSPair builds two connected JWINS nodes over a dim-parameter flat model
// with the paper's default configuration (flate32 values), the fixture of
// the Share/Aggregate micro-benchmarks.
func JWINSPair(dim int) (a, b *core.JWINSNode, err error) {
	return JWINSPairCodec(dim, nil)
}

// JWINSPairCodec is JWINSPair with an explicit float codec (nil keeps the
// default). The raw32 variant isolates the repository's own pipeline from
// compress/flate's internal per-block table allocations, which are the only
// allocations left on the decode path.
func JWINSPairCodec(dim int, fc codec.FloatCodec) (a, b *core.JWINSNode, err error) {
	rng := vec.NewRNG(3)
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 2, Channels: 1, Height: 4, Width: 4, TrainPerClass: 4, TestPerClass: 2,
	}, rng)
	if err != nil {
		return nil, nil, err
	}
	loader := datasets.NewLoader(ds, []int{0, 1, 2, 3}, 2, rng.Split())
	opts := core.TrainOpts{LR: 0.1, LocalSteps: 1}
	cfg := core.DefaultJWINSConfig()
	if fc != nil {
		cfg.FloatCodec = fc
	}
	a, err = core.NewJWINS(0, NewFlatModel(randomParams(dim, 1)), loader, opts, cfg, rng.Split())
	if err != nil {
		return nil, nil, err
	}
	b, err = core.NewJWINS(1, NewFlatModel(randomParams(dim, 2)), loader, opts, cfg, rng.Split())
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// PairWeights is the mixing row of a two-node clique for the micro fixtures.
func PairWeights(neighbor int) topology.Weights {
	return topology.Weights{Self: 0.5, Neighbor: map[int]float64{neighbor: 0.5}}
}

func randomParams(n int, seed uint64) []float64 {
	rng := vec.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// FlatModel is a minimal Trainable over a raw parameter vector: the model
// stand-in for micro-benchmarks that isolate the JWINS pipeline from SGD.
type FlatModel struct{ params []float64 }

// NewFlatModel wraps params as a Trainable.
func NewFlatModel(params []float64) *FlatModel { return &FlatModel{params: params} }

// ParamCount implements nn.Trainable.
func (m *FlatModel) ParamCount() int { return len(m.params) }

// CopyParams implements nn.Trainable.
func (m *FlatModel) CopyParams(dst []float64) { copy(dst, m.params) }

// SetParams implements nn.Trainable.
func (m *FlatModel) SetParams(src []float64) { copy(m.params, src) }

// TrainBatch implements nn.Trainable (no-op).
func (m *FlatModel) TrainBatch(*nn.Tensor, []float64, float64) float64 { return 0 }

// EvalBatch implements nn.Trainable (no-op).
func (m *FlatModel) EvalBatch(*nn.Tensor, []float64) (float64, int, int) { return 0, 0, 1 }

// Record is one benchmark's measurement in a BENCH_*.json file.
type Record struct {
	Name         string  `json:"name"`
	Iters        int     `json:"iters"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// measure runs fn iters times and reports per-op wall time, allocations,
// and bytes, plus simulated events/sec when fn reports events.
func measure(name string, iters int, fn func() (int64, error)) (Record, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var events int64
	for i := 0; i < iters; i++ {
		ev, err := fn()
		if err != nil {
			return Record{}, fmt.Errorf("%s: %w", name, err)
		}
		events += ev
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	rec := Record{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}
	if events > 0 && elapsed > 0 {
		rec.EventsPerSec = float64(events) / elapsed.Seconds()
	}
	return rec, nil
}

// autoIters scales the iteration count so a benchmark runs for roughly
// budget, based on one warm-up run (which also primes pools and caches).
func autoIters(budget time.Duration, fn func() (int64, error)) (int, error) {
	start := time.Now()
	if _, err := fn(); err != nil {
		return 0, err
	}
	once := time.Since(start)
	if once <= 0 {
		return 100, nil
	}
	iters := int(budget / once)
	if iters < 1 {
		iters = 1
	}
	if iters > 10_000_000 {
		iters = 10_000_000
	}
	return iters, nil
}
