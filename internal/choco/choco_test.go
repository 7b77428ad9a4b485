package choco

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
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

func TestConfigValidation(t *testing.T) {
	model := &stubModel{params: make([]float64, 8)}
	loader := testLoader(t)
	opts := core.TrainOpts{LR: 0.1, LocalSteps: 1}
	if _, err := New(0, model, loader, opts, Config{Fraction: 0, Gamma: 0.5}); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := New(0, model, loader, opts, Config{Fraction: 0.2, Gamma: 0}); err == nil {
		t.Fatal("zero gamma accepted")
	}
	if _, err := New(0, model, loader, core.TrainOpts{}, Config{Fraction: 0.2, Gamma: 0.5}); err == nil {
		t.Fatal("invalid train opts accepted")
	}
}

// TestChocoConsensus: with no training and full compression (fraction 1,
// gamma 1), CHOCO reduces to exact gossip averaging and must reach consensus
// at the uniform average on a regular graph.
func TestChocoConsensus(t *testing.T) {
	rng := vec.NewRNG(3)
	const n = 8
	const dim = 20
	g, err := topology.Regular(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := topology.MetropolisHastings(g)
	var nodes []*Node
	want := make([]float64, dim)
	for i := 0; i < n; i++ {
		params := make([]float64, dim)
		for k := range params {
			params[k] = rng.NormFloat64()
			want[k] += params[k] / n
		}
		node, err := New(i, &stubModel{params: params}, testLoader(t), core.TrainOpts{LR: 0.1, LocalSteps: 1}, Config{Fraction: 1, Gamma: 1, FloatCodec: codec.Raw32{}})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for round := 0; round < 80; round++ {
		payloads := make([][]byte, n)
		for i, node := range nodes {
			p, _, err := node.Share(round)
			if err != nil {
				t.Fatal(err)
			}
			payloads[i] = p
		}
		for i, node := range nodes {
			msgs := map[int][]byte{}
			for _, j := range g.Neighbors(i) {
				msgs[j] = payloads[j]
			}
			if err := node.Aggregate(round, w[i], msgs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, node := range nodes {
		got := make([]float64, dim)
		node.Model().CopyParams(got)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-2 {
				t.Fatalf("node %d param %d = %v, want %v", i, k, got[k], want[k])
			}
		}
	}
}

// TestChocoSparseConsensusContracts: with 20% TopK compression and a stable
// gamma, disagreement must shrink over rounds (the error-feedback property).
// Note gamma=0.6 — the paper's tuned value for CIFAR training — diverges on
// this pure-consensus stress test, illustrating the gamma sensitivity the
// paper reports in Section IV-D; the theory-safe regime is much smaller.
func TestChocoSparseConsensusContracts(t *testing.T) {
	rng := vec.NewRNG(4)
	const n = 6
	const dim = 50
	g, err := topology.Regular(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := topology.MetropolisHastings(g)
	var nodes []*Node
	for i := 0; i < n; i++ {
		params := make([]float64, dim)
		for k := range params {
			params[k] = rng.NormFloat64() * 2
		}
		node, err := New(i, &stubModel{params: params}, testLoader(t), core.TrainOpts{LR: 0.1, LocalSteps: 1}, Config{Fraction: 0.2, Gamma: 0.25, FloatCodec: codec.Raw32{}})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	spread := func() float64 {
		var worst float64
		for k := 0; k < dim; k++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, node := range nodes {
				p := make([]float64, dim)
				node.Model().CopyParams(p)
				lo = math.Min(lo, p[k])
				hi = math.Max(hi, p[k])
			}
			worst = math.Max(worst, hi-lo)
		}
		return worst
	}
	before := spread()
	for round := 0; round < 400; round++ {
		payloads := make([][]byte, n)
		for i, node := range nodes {
			p, _, err := node.Share(round)
			if err != nil {
				t.Fatal(err)
			}
			payloads[i] = p
		}
		for i, node := range nodes {
			msgs := map[int][]byte{}
			for _, j := range g.Neighbors(i) {
				msgs[j] = payloads[j]
			}
			if err := node.Aggregate(round, w[i], msgs); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := spread()
	if after > before/4 {
		t.Fatalf("CHOCO disagreement did not contract: %v -> %v", before, after)
	}
}

func TestChocoPayloadBudget(t *testing.T) {
	dim := 1000
	node, err := New(0, &stubModel{params: make([]float64, dim)}, testLoader(t), core.TrainOpts{LR: 0.1, LocalSteps: 1}, Config{Fraction: 0.1, Gamma: 0.5, FloatCodec: codec.Raw32{}})
	if err != nil {
		t.Fatal(err)
	}
	_, bd, err := node.Share(0)
	if err != nil {
		t.Fatal(err)
	}
	// 10% of 1000 params = 100 float32 values = 400 bytes of model payload.
	if bd.Model != 400 {
		t.Fatalf("model bytes = %d, want 400", bd.Model)
	}
}

func TestChocoRejectsUnknownSender(t *testing.T) {
	node, err := New(0, &stubModel{params: make([]float64, 8)}, testLoader(t), core.TrainOpts{LR: 0.1, LocalSteps: 1}, Config{Fraction: 0.5, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := node.Share(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Aggregate(0, topology.Weights{Self: 1, Neighbor: map[int]float64{}}, map[int][]byte{9: p}); err == nil {
		t.Fatal("expected error for unknown sender")
	}
}

// TestChocoShareAllocationCeiling holds CHOCO's Share to the ceiling
// TestJWINSHotPathAllocationFree sets for JWINS: with a warm working set and
// the raw32 codec, the difference vector, the top-k selection, the gathered
// values and the encode intermediates all live in the call's core.Scratch,
// and the payload goes into the buffer handed back after the last Share, so
// nothing is allocated; with nothing handed back the payload is the one
// allocation.
func TestChocoShareAllocationCeiling(t *testing.T) {
	const dim = 20_000
	params := make([]float64, dim)
	r := vec.NewRNG(1)
	for i := range params {
		params[i] = r.NormFloat64()
	}
	node, err := New(0, &stubModel{params: params}, testLoader(t), core.TrainOpts{LR: 0.1, LocalSteps: 1},
		Config{Fraction: 0.2, Gamma: 0.6, FloatCodec: codec.Raw32{}})
	if err != nil {
		t.Fatal(err)
	}
	share := func() {
		p, _, err := node.Share(0)
		if err != nil {
			t.Fatal(err)
		}
		node.RecyclePayload(p)
	}
	share()
	if allocs := testing.AllocsPerRun(30, share); allocs != 0 {
		t.Fatalf("Share allocates %v per op with a warm working set and a handed-back payload, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(30, func() {
		if _, _, err := node.Share(0); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("Share allocates %v per op with a warm working set and no handed-back payload, want 1 (the payload)", allocs)
	}
}
