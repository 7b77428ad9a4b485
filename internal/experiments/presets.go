// Package experiments assembles datasets, models, node fleets, and run
// harnesses for every table and figure in the paper's evaluation (Section
// IV). Each experiment has a function FigN/Table1 returning a printable
// result; cmd/jwins-bench exposes them on the command line, and
// figures_test.go and golden_test.go run micro-scale versions.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/vec"
)

// Scale selects the experiment size. The paper's testbed (96-384 Python
// processes on 6 Xeon machines, full-size datasets, hundreds of epochs) does
// not fit a laptop-scale pure-Go run, so Micro and Small shrink nodes, data,
// and model widths while preserving every structural property the
// conclusions rest on (non-IID partitioning, architecture shapes, alpha
// distributions, compression stack).
type Scale int

// Scales.
const (
	// Micro: seconds per run; used by unit tests and Go benchmarks.
	Micro Scale = iota
	// Small: minutes per full experiment; the default for cmd/jwins-bench.
	Small
	// Paper: the paper's node counts and model widths. Provided for
	// completeness; expect very long runtimes.
	Paper
)

// ParseScale converts a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "micro":
		return Micro, nil
	case "small":
		return Small, nil
	case "paper":
		return Paper, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want micro, small, or paper)", s)
	}
}

func (s Scale) String() string {
	switch s {
	case Micro:
		return "micro"
	case Small:
		return "small"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Workload is one benchmark task instantiated at a scale: the dataset, its
// node partitioning, a model factory, and tuned hyperparameters.
type Workload struct {
	Name     string
	Scale    Scale
	Nodes    int
	Degree   int
	Dataset  *datasets.Dataset
	Parts    [][]int
	NewModel func(rng *vec.RNG) nn.Trainable
	Opts     core.TrainOpts
	Batch    int
	// Rounds is the fixed-epoch round budget used by the Table 1 protocol.
	Rounds int
	// EvalEvery is the evaluation cadence for learning curves.
	EvalEvery int

	// key is what NewWorkload, NewCIFAR10Shards or ScaleWorkload built the
	// workload from; a trace header must rebuild it (see TraceHeader).
	key workloadKey
}

// WorkloadNames lists the five benchmark tasks in paper order.
var WorkloadNames = []string{"cifar10", "movielens", "shakespeare", "celeba", "femnist"}

// workloadKey identifies one deterministic workload synthesis: the build
// functions draw everything from (name, scale, nodes, shards, seed), so equal
// keys produce identical workloads and the synthesis can be shared.
type workloadKey struct {
	name   string
	scale  Scale
	nodes  int
	shards int
	seed   uint64
}

// presetKey is the key NewWorkload builds name from, or ScaleWorkload for
// "extscale": what SpecFromTraceHeader rebuilds a header's workload from.
func presetKey(name string, scale Scale, nodes int, seed uint64) workloadKey {
	shards := 0
	if name == "cifar10" || name == "extscale" {
		shards = 2
	}
	return workloadKey{name, scale, nodes, shards, seed}
}

// workloadCache memoizes dataset synthesis across sweep arms: a sweep that
// runs three arms per node count used to synthesize (and partition) the same
// tensors three times. Cached workloads share their Dataset, Parts, and model
// factory — all read-only after construction (loaders copy the index slices
// they shuffle) — while each caller gets its own Workload struct to keep
// value-field writes private.
var workloadCache = struct {
	sync.Mutex
	m map[workloadKey]*Workload
}{m: map[workloadKey]*Workload{}}

// memoWorkload returns a shallow copy of the cached workload for key,
// building and caching it on first use. The lock is held across the build so
// concurrent arms of a sweep synthesize each key once.
func memoWorkload(key workloadKey, build func() (*Workload, error)) (*Workload, error) {
	workloadCache.Lock()
	defer workloadCache.Unlock()
	w, ok := workloadCache.m[key]
	if !ok {
		var err error
		if w, err = build(); err != nil {
			return nil, err
		}
		workloadCache.m[key] = w
	}
	cp := *w
	return &cp, nil
}

// NewWorkload builds the named workload ("cifar10", "movielens",
// "shakespeare", "celeba", "femnist") at the given scale. nodes == 0 uses the
// scale's default node count. All randomness descends from seed; repeated
// calls with the same arguments share one synthesized dataset (memoized
// across sweep arms).
func NewWorkload(name string, scale Scale, nodes int, seed uint64) (*Workload, error) {
	if nodes == 0 {
		nodes = defaultNodes(scale)
	}
	key := presetKey(name, scale, nodes, seed)
	return memoWorkload(key, func() (*Workload, error) {
		rng := vec.NewRNG(seed)
		w := &Workload{Name: name, Scale: scale, Nodes: nodes, Degree: degreeFor(nodes), key: key}
		var err error
		switch name {
		case "cifar10":
			err = buildCIFAR10(w, scale, rng, 2)
		case "femnist":
			err = buildFEMNIST(w, scale, rng)
		case "celeba":
			err = buildCelebA(w, scale, rng)
		case "shakespeare":
			err = buildShakespeare(w, scale, rng)
		case "movielens":
			err = buildMovieLens(w, scale, rng)
		default:
			return nil, fmt.Errorf("experiments: unknown workload %q", name)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: building %s: %w", name, err)
		}
		return w, nil
	})
}

// NewCIFAR10Shards builds the CIFAR-10-like workload with a custom
// shards-per-node setting (the scalability study uses 4 instead of 2).
// Memoized like NewWorkload.
func NewCIFAR10Shards(scale Scale, nodes, shardsPerNode int, seed uint64) (*Workload, error) {
	if nodes == 0 {
		nodes = defaultNodes(scale)
	}
	key := workloadKey{"cifar10", scale, nodes, shardsPerNode, seed}
	return memoWorkload(key, func() (*Workload, error) {
		rng := vec.NewRNG(seed)
		w := &Workload{Name: "cifar10", Scale: scale, Nodes: nodes, Degree: degreeFor(nodes), key: key}
		if err := buildCIFAR10(w, scale, rng, shardsPerNode); err != nil {
			return nil, err
		}
		return w, nil
	})
}

func defaultNodes(scale Scale) int {
	switch scale {
	case Micro:
		return 8
	case Small:
		return 16
	default:
		return 96
	}
}

// degreeFor mirrors the paper's choice: degree 4 for 96 nodes, 5 for 192 and
// 288, 6 for 384, so edges grow with nodes. Scaled-down settings keep 4.
func degreeFor(nodes int) int {
	switch {
	case nodes >= 384:
		return 6
	case nodes >= 192:
		return 5
	case nodes >= 5:
		return 4
	default:
		return 2
	}
}

func buildCIFAR10(w *Workload, scale Scale, rng *vec.RNG, shards int) error {
	var (
		size, perClass, width int
		rounds                int
		noise                 float64
	)
	switch scale {
	case Micro:
		size, perClass, width, rounds, noise = 8, 16, 8, 15, 0.3
	case Small:
		// Higher noise keeps the task unsaturated over the round budget so
		// algorithm differences stay visible (real CIFAR-10 is far harder
		// than smooth synthetic templates).
		size, perClass, width, rounds, noise = 16, 8*w.Nodes, 4, 60, 2.8
	default:
		size, perClass, width, rounds, noise = 32, 500, 1, 2680, 1.4
	}
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Name: "cifar10", Classes: 10, Channels: 3, Height: size, Width: size,
		TrainPerClass: perClass, TestPerClass: perClass / 4,
		NoiseSD: noise,
	}, rng)
	if err != nil {
		return err
	}
	parts, err := datasets.PartitionShards(ds, w.Nodes, shards, rng)
	if err != nil {
		return err
	}
	w.Dataset, w.Parts = ds, parts
	w.NewModel = func(r *vec.RNG) nn.Trainable {
		return nn.NewGNLeNet(nn.ModelConfig{Channels: 3, Height: size, Width: size, Classes: 10, WidthScale: width}, r)
	}
	w.Opts = core.TrainOpts{LR: 0.05, LocalSteps: 3}
	w.Batch = 8
	w.Rounds = rounds
	w.EvalEvery = evalCadence(rounds)
	return nil
}

func buildFEMNIST(w *Workload, scale Scale, rng *vec.RNG) error {
	var (
		size, classes, perClass, width int
		rounds                         int
	)
	var noise float64
	switch scale {
	case Micro:
		size, classes, perClass, width, rounds, noise = 8, 10, 16, 8, 15, 0.3
	case Small:
		size, classes, perClass, width, rounds, noise = 16, 26, 4*w.Nodes, 4, 50, 1.0
	default:
		size, classes, perClass, width, rounds, noise = 28, 62, 1000, 1, 1500, 1.0
	}
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Name: "femnist", Classes: classes, Channels: 1, Height: size, Width: size,
		TrainPerClass: perClass, TestPerClass: perClass/4 + 1,
		Clients: 3 * w.Nodes,
		NoiseSD: noise,
	}, rng)
	if err != nil {
		return err
	}
	parts, err := datasets.PartitionByClient(ds, w.Nodes, rng)
	if err != nil {
		return err
	}
	w.Dataset, w.Parts = ds, parts
	w.NewModel = func(r *vec.RNG) nn.Trainable {
		return nn.NewLEAFCNN(nn.ModelConfig{Channels: 1, Height: size, Width: size, Classes: classes, WidthScale: width}, r)
	}
	w.Opts = core.TrainOpts{LR: 0.05, LocalSteps: 3}
	w.Batch = 8
	w.Rounds = rounds
	w.EvalEvery = evalCadence(rounds)
	return nil
}

func buildCelebA(w *Workload, scale Scale, rng *vec.RNG) error {
	var (
		size, perClass, width int
		rounds                int
	)
	var noise float64
	switch scale {
	case Micro:
		size, perClass, width, rounds, noise = 8, 32, 8, 12, 0.3
	case Small:
		size, perClass, width, rounds, noise = 16, 16*w.Nodes, 4, 40, 2.2
	default:
		size, perClass, width, rounds, noise = 32, 40000, 1, 520, 2.2
	}
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Name: "celeba", Classes: 2, Channels: 3, Height: size, Width: size,
		TrainPerClass: perClass, TestPerClass: perClass/4 + 1,
		Clients: 3 * w.Nodes,
		NoiseSD: noise,
	}, rng)
	if err != nil {
		return err
	}
	parts, err := datasets.PartitionByClient(ds, w.Nodes, rng)
	if err != nil {
		return err
	}
	w.Dataset, w.Parts = ds, parts
	w.NewModel = func(r *vec.RNG) nn.Trainable {
		return nn.NewLEAFCNN(nn.ModelConfig{Channels: 3, Height: size, Width: size, Classes: 2, WidthScale: width}, r)
	}
	w.Opts = core.TrainOpts{LR: 0.05, LocalSteps: 3}
	w.Batch = 8
	w.Rounds = rounds
	w.EvalEvery = evalCadence(rounds)
	return nil
}

func buildShakespeare(w *Workload, scale Scale, rng *vec.RNG) error {
	var (
		seqLen, windows, hidden, embed, layers int
		rounds                                 int
	)
	switch scale {
	case Micro:
		seqLen, windows, hidden, embed, layers, rounds = 16, 16, 16, 8, 1, 12
	case Small:
		seqLen, windows, hidden, embed, layers, rounds = 24, 48, 32, 8, 2, 40
	default:
		seqLen, windows, hidden, embed, layers, rounds = 80, 1000, 256, 8, 2, 570
	}
	ds, err := datasets.ShakespeareLike(datasets.TextConfig{
		SeqLen: seqLen, Clients: w.Nodes, WindowsPerClient: windows,
	}, rng)
	if err != nil {
		return err
	}
	parts, err := datasets.PartitionByClient(ds, w.Nodes, rng)
	if err != nil {
		return err
	}
	vocab := ds.Classes
	w.Dataset, w.Parts = ds, parts
	w.NewModel = func(r *vec.RNG) nn.Trainable {
		return nn.NewCharLSTM(nn.CharLSTMConfig{Vocab: vocab, Embed: embed, Hidden: hidden, Layers: layers}, r)
	}
	w.Opts = core.TrainOpts{LR: 0.3, LocalSteps: 2}
	w.Batch = 8
	w.Rounds = rounds
	w.EvalEvery = evalCadence(rounds)
	return nil
}

func buildMovieLens(w *Workload, scale Scale, rng *vec.RNG) error {
	var (
		usersPerNode, items, factor int
		rounds                      int
	)
	switch scale {
	case Micro:
		usersPerNode, items, factor, rounds = 2, 60, 8, 15
	case Small:
		usersPerNode, items, factor, rounds = 4, 200, 8, 60
	default:
		usersPerNode, items, factor, rounds = 10, 1700, 16, 4000
	}
	users := usersPerNode * w.Nodes
	ds, err := datasets.MovieLensLike(datasets.RatingConfig{
		Users: users, Items: items, TrainPerUser: 20, TestPerUser: 5,
	}, rng)
	if err != nil {
		return err
	}
	parts, err := datasets.PartitionByClient(ds, w.Nodes, rng)
	if err != nil {
		return err
	}
	w.Dataset, w.Parts = ds, parts
	w.NewModel = func(r *vec.RNG) nn.Trainable {
		return nn.NewMatrixFactorization(users, items, factor, r)
	}
	w.Opts = core.TrainOpts{LR: 0.05, LocalSteps: 2}
	w.Batch = 16
	w.Rounds = rounds
	w.EvalEvery = evalCadence(rounds)
	return nil
}

func evalCadence(rounds int) int {
	switch {
	case rounds <= 20:
		return 3
	case rounds <= 80:
		return 5
	default:
		return rounds / 20
	}
}
