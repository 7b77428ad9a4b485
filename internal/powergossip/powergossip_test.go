package powergossip

import (
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/topology"
	"repro/internal/vec"
)

type stubModel struct {
	params []float64
}

func (s *stubModel) ParamCount() int                                   { return len(s.params) }
func (s *stubModel) CopyParams(dst []float64)                          { copy(dst, s.params) }
func (s *stubModel) SetParams(src []float64)                           { copy(s.params, src) }
func (s *stubModel) TrainBatch(*nn.Tensor, []float64, float64) float64 { return 0 }
func (s *stubModel) EvalBatch(*nn.Tensor, []float64) (float64, int, int) {
	return 0, 0, 1
}

func testLoader(t *testing.T) *datasets.Loader {
	t.Helper()
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 2, Channels: 1, Height: 4, Width: 4, TrainPerClass: 4, TestPerClass: 2,
	}, vec.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return datasets.NewLoader(ds, []int{0, 1, 2, 3}, 2, vec.NewRNG(2))
}

func TestValidation(t *testing.T) {
	if _, err := New(0, &stubModel{params: make([]float64, 10)}, testLoader(t), 0, 1); err == nil {
		t.Fatal("zero lr accepted")
	}
	if _, err := New(0, &stubModel{params: make([]float64, 10)}, testLoader(t), 0.1, 0); err == nil {
		t.Fatal("zero steps accepted")
	}
}

// TestRank1ExactForRank1Difference: when the true model difference is rank 1,
// a single power iteration recovers it exactly, so two nodes meet in the
// middle after one round.
func TestRank1ExactForRank1Difference(t *testing.T) {
	const rows, cols = 10, 10
	const dim = rows * cols
	rng := vec.NewRNG(3)
	u := make([]float64, rows)
	v := make([]float64, cols)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	base := make([]float64, dim)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	// Node B = base; node A = base + u v^T (a rank-1 offset).
	pa := append([]float64(nil), base...)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pa[r*cols+c] += u[r] * v[c]
		}
	}
	a, err := New(0, &stubModel{params: pa}, testLoader(t), 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1, &stubModel{params: append([]float64(nil), base...)}, testLoader(t), 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := topology.Ring(2)
	RunRound([]*Node{a, b}, g, Config{PowerIterations: 1})

	// After meeting half-way along the exact rank-1 difference, both should
	// hold base + u v^T / 2.
	wantMid := append([]float64(nil), base...)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			wantMid[r*cols+c] += u[r] * v[c] / 2
		}
	}
	gotA := make([]float64, dim)
	gotB := make([]float64, dim)
	a.Model().CopyParams(gotA)
	b.Model().CopyParams(gotB)
	if mse := vec.MSE(gotA, wantMid); mse > 1e-10 {
		t.Fatalf("node A not at midpoint: MSE %v", mse)
	}
	if mse := vec.MSE(gotB, wantMid); mse > 1e-10 {
		t.Fatalf("node B not at midpoint: MSE %v", mse)
	}
}

// TestConsensusContracts: with no training, repeated POWERGOSSIP rounds must
// shrink disagreement on a connected graph.
func TestConsensusContracts(t *testing.T) {
	rng := vec.NewRNG(4)
	const n = 6
	const dim = 64
	g, err := topology.Regular(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		params := make([]float64, dim)
		for k := range params {
			params[k] = rng.NormFloat64() * 2
		}
		nodes[i], err = New(i, &stubModel{params: params}, testLoader(t), 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	spread := func() float64 {
		var worst float64
		for k := 0; k < dim; k++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, nd := range nodes {
				p := make([]float64, dim)
				nd.Model().CopyParams(p)
				lo = math.Min(lo, p[k])
				hi = math.Max(hi, p[k])
			}
			worst = math.Max(worst, hi-lo)
		}
		return worst
	}
	before := spread()
	var bytes int64
	for round := 0; round < 150; round++ {
		_, b := RunRound(nodes, g, Config{PowerIterations: 1})
		bytes += b
	}
	after := spread()
	if after > before/3 {
		t.Fatalf("POWERGOSSIP disagreement did not contract: %v -> %v", before, after)
	}
	if bytes <= 0 {
		t.Fatal("no bytes accounted")
	}
	// Low-rank sketches must be far cheaper than full models:
	// full sharing would cost 2 * dim floats per edge per round, one per
	// direction, which is one per adjacency entry.
	var arcs int64
	for _, a := range g.Adj {
		arcs += int64(len(a))
	}
	fullBytes := int64(150) * arcs * 4 * int64(dim)
	if bytes >= fullBytes {
		t.Fatalf("POWERGOSSIP used %d bytes, full sharing would use %d", bytes, fullBytes)
	}
}

// TestLearnsToy: POWERGOSSIP trains a small classifier collaboratively.
func TestLearnsToy(t *testing.T) {
	rng := vec.NewRNG(5)
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Channels: 1, Height: 8, Width: 8, TrainPerClass: 40, TestPerClass: 10,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	parts, err := datasets.PartitionShards(ds, n, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Regular(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	template := nn.NewMLP(64, 24, 4, rng.Split())
	initial := make([]float64, template.ParamCount())
	template.CopyParams(initial)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodeRNG := rng.Split()
		model := nn.NewMLP(64, 24, 4, nodeRNG)
		model.SetParams(initial)
		loader := datasets.NewLoader(ds, parts[i], 8, nodeRNG.Split())
		nodes[i], err = New(i, model, loader, 0.05, 2)
		if err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 40; round++ {
		RunRound(nodes, g, Config{PowerIterations: 2})
	}
	var acc float64
	for _, nd := range nodes {
		_, a := datasets.Evaluate(ds, nd.Model(), 16)
		acc += a / n
	}
	if acc < 0.5 {
		t.Fatalf("POWERGOSSIP accuracy %.2f, want > 0.5 (chance 0.25)", acc)
	}
}
