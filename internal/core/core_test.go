package core

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/topology"
	"repro/internal/vec"
)

// stubModel is a Trainable whose training is a no-op; it isolates the
// communication/averaging path for consensus tests.
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

// tinyDataset is the minimal dataset needed to build loaders for stub nodes.
func tinyDataset(t testing.TB) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 2, Channels: 1, Height: 4, Width: 4, TrainPerClass: 4, TestPerClass: 2,
	}, vec.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func stubLoader(t testing.TB, ds *datasets.Dataset) *datasets.Loader {
	t.Helper()
	return datasets.NewLoader(ds, []int{0, 1, 2, 3}, 2, vec.NewRNG(2))
}

// jwinsFleet builds n identical-shape JWINS nodes on stub models with
// deterministic per-node parameters and RNG seeds, so two calls produce two
// fleets whose nodes are bit-identical pair-wise.
func jwinsFleet(t *testing.T, n, dim int, cfg JWINSConfig) []*JWINSNode {
	t.Helper()
	ds := tinyDataset(t)
	loader := stubLoader(t, ds)
	opts := TrainOpts{LR: 0.1, LocalSteps: 1}
	nodes := make([]*JWINSNode, n)
	for i := range nodes {
		params := make([]float64, dim)
		r := vec.NewRNG(uint64(100 + i))
		for j := range params {
			params[j] = r.NormFloat64()
		}
		node, err := NewJWINS(i, &stubModel{params: params}, loader, opts, cfg, vec.NewRNG(uint64(500+i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes
}

// maxAbs returns the maximum absolute value in x (0 for empty x).
func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// sharedIndices lists, in increasing order, the coefficients the node's last
// Share selected: the set bits of its mask (none after a full share).
func sharedIndices(n *JWINSNode) []int {
	var idx []int
	for i, word := range n.shared {
		for ; word != 0; word &= word - 1 {
			idx = append(idx, i*64+bits.TrailingZeros64(word))
		}
	}
	return idx
}

// floatsBitEqual reports whether a and b hold the same bit patterns.
func floatsBitEqual[T float32 | float64](a, b []T) bool {
	return slices.EqualFunc(a, b, func(x, y T) bool { return floatBits(x) == floatBits(y) })
}

func floatBits[T float32 | float64](x T) uint64 {
	if f, ok := any(x).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(x))
}

func TestAlphaDistributions(t *testing.T) {
	d := DefaultAlphas()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if m := d.Mean(); math.Abs(m-0.342857) > 1e-4 {
		t.Fatalf("default mean = %v", m)
	}
	rng := vec.NewRNG(3)
	counts := map[float64]int{}
	for i := 0; i < 7000; i++ {
		counts[d.Sample(rng)]++
	}
	for _, v := range d.Values {
		if c := counts[v]; c < 700 || c > 1300 {
			t.Fatalf("alpha %v drawn %d/7000 times, want ~1000", v, c)
		}
	}

	b20, err := BudgetAlphas(0.20)
	if err != nil {
		t.Fatal(err)
	}
	if m := b20.Mean(); math.Abs(m-0.19) > 1e-9 {
		t.Fatalf("20%% budget mean = %v", m)
	}
	b10, err := BudgetAlphas(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if m := b10.Mean(); math.Abs(m-0.0975) > 1e-9 {
		t.Fatalf("10%% budget mean = %v", m)
	}
	if _, err := BudgetAlphas(0.33); err == nil {
		t.Fatal("expected error for unknown budget")
	}
	if err := (AlphaDist{Values: []float64{2}, Probs: []float64{1}}).Validate(); err == nil {
		t.Fatal("alpha > 1 must be rejected")
	}
	if err := (AlphaDist{Values: []float64{0.5}, Probs: []float64{0.5}}).Validate(); err == nil {
		t.Fatal("probs != 1 must be rejected")
	}
}

// runConsensusRound drives one full communicate+aggregate round directly.
func runConsensusRound(t *testing.T, nodes []Node, g *topology.Graph, w []topology.Weights, round int) {
	t.Helper()
	payloads := make([][]byte, len(nodes))
	for i, n := range nodes {
		p, _, err := n.Share(round)
		if err != nil {
			t.Fatalf("node %d share: %v", i, err)
		}
		payloads[i] = p
	}
	for i, n := range nodes {
		msgs := map[int][]byte{}
		for _, j := range g.Neighbors(i) {
			msgs[j] = payloads[j]
		}
		if err := n.Aggregate(round, w[i], msgs); err != nil {
			t.Fatalf("node %d aggregate: %v", i, err)
		}
	}
}

// TestFullSharingConsensus: with no training, repeated D-PSGD averaging over
// a connected graph with doubly stochastic weights must drive all nodes to
// the uniform average of the initial vectors.
func TestFullSharingConsensus(t *testing.T) {
	ds := tinyDataset(t)
	rng := vec.NewRNG(4)
	const n = 8
	const dim = 33
	g, err := topology.Regular(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := topology.MetropolisHastings(g)

	var nodes []Node
	want := make([]float64, dim)
	for i := 0; i < n; i++ {
		params := make([]float64, dim)
		for k := range params {
			params[k] = rng.NormFloat64()
			want[k] += params[k] / n
		}
		node, err := NewFullSharing(i, &stubModel{params: params}, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, codec.Raw32{})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for round := 0; round < 60; round++ {
		runConsensusRound(t, nodes, g, w, round)
	}
	for i, node := range nodes {
		got := make([]float64, dim)
		node.Model().CopyParams(got)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-3 {
				t.Fatalf("node %d param %d = %v, want consensus %v", i, k, got[k], want[k])
			}
		}
	}
}

// TestJWINSFullAlphaMatchesFullSharing: with alpha fixed at 100% and the
// wavelet enabled, JWINS shares every coefficient, so one round must produce
// (up to float32 wire quantization) the same averaged model as full-sharing.
func TestJWINSFullAlphaMatchesFullSharing(t *testing.T) {
	ds := tinyDataset(t)
	rng := vec.NewRNG(5)
	const n = 4
	const dim = 57
	g := topology.Ring(n)
	w := topology.MetropolisHastings(g)

	initial := make([][]float64, n)
	for i := range initial {
		initial[i] = make([]float64, dim)
		for k := range initial[i] {
			initial[i][k] = rng.NormFloat64()
		}
	}

	build := func(jwins bool) []Node {
		var nodes []Node
		for i := 0; i < n; i++ {
			model := &stubModel{params: slices.Clone(initial[i])}
			var node Node
			var err error
			if jwins {
				cfg := DefaultJWINSConfig()
				cfg.Alphas = FixedAlpha(1)
				cfg.FloatCodec = codec.Raw32{}
				node, err = NewJWINS(i, model, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(uint64(100+i)))
			} else {
				node, err = NewFullSharing(i, model, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, codec.Raw32{})
			}
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, node)
		}
		return nodes
	}

	jwinsNodes := build(true)
	fullNodes := build(false)
	runConsensusRound(t, jwinsNodes, g, w, 0)
	runConsensusRound(t, fullNodes, g, w, 0)
	for i := range jwinsNodes {
		a := make([]float64, dim)
		b := make([]float64, dim)
		jwinsNodes[i].Model().CopyParams(a)
		fullNodes[i].Model().CopyParams(b)
		for k := range a {
			// float32 wire + DWT round trip: allow small tolerance.
			if math.Abs(a[k]-b[k]) > 1e-5 {
				t.Fatalf("node %d param %d: jwins %v vs full %v", i, k, a[k], b[k])
			}
		}
	}
}

// TestJWINSPartialConsensus: even with partial sharing, repeated rounds must
// drive nodes toward consensus on a connected graph.
func TestJWINSPartialConsensus(t *testing.T) {
	ds := tinyDataset(t)
	rng := vec.NewRNG(6)
	const n = 6
	const dim = 40
	g, err := topology.Regular(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := topology.MetropolisHastings(g)
	var nodes []Node
	for i := 0; i < n; i++ {
		params := make([]float64, dim)
		for k := range params {
			params[k] = rng.NormFloat64() * 3
		}
		cfg := DefaultJWINSConfig()
		cfg.FloatCodec = codec.Raw32{}
		node, err := NewJWINS(i, &stubModel{params: params}, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(uint64(200+i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	spread := func() float64 {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for k := range lo {
			lo[k], hi[k] = math.Inf(1), math.Inf(-1)
		}
		for _, node := range nodes {
			p := make([]float64, dim)
			node.Model().CopyParams(p)
			for k, v := range p {
				lo[k] = math.Min(lo[k], v)
				hi[k] = math.Max(hi[k], v)
			}
		}
		var worst float64
		for k := range lo {
			worst = math.Max(worst, hi[k]-lo[k])
		}
		return worst
	}
	before := spread()
	for round := 0; round < 80; round++ {
		runConsensusRound(t, nodes, g, w, round)
	}
	after := spread()
	if after > before/5 {
		t.Fatalf("JWINS did not contract disagreement: %v -> %v", before, after)
	}
}

func TestJWINSAlphaSampling(t *testing.T) {
	ds := tinyDataset(t)
	cfg := DefaultJWINSConfig()
	node, err := NewJWINS(0, &stubModel{params: make([]float64, 64)}, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for round := 0; round < 60; round++ {
		if _, _, err := node.Share(round); err != nil {
			t.Fatal(err)
		}
		seen[node.LastAlpha] = true
		// Feed itself to keep state consistent (self-loop-free aggregate).
		if err := node.Aggregate(round, topology.Weights{Self: 1, Neighbor: map[int]float64{}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("randomized cut-off drew only %d distinct alphas in 60 rounds", len(seen))
	}
	// Disabled cut-off always shares the mean.
	cfg.DisableRandomCutoff = true
	node2, err := NewJWINS(1, &stubModel{params: make([]float64, 64)}, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if _, _, err := node2.Share(round); err != nil {
			t.Fatal(err)
		}
		if math.Abs(node2.LastAlpha-cfg.Alphas.Mean()) > 1e-12 {
			t.Fatalf("disabled cut-off sampled %v, want mean %v", node2.LastAlpha, cfg.Alphas.Mean())
		}
		if err := node2.Aggregate(round, topology.Weights{Self: 1, Neighbor: map[int]float64{}}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJWINSAccumulatorReset: coefficients shared in a round must have their
// importance score reset, while unshared ones keep accumulating.
func TestJWINSAccumulatorReset(t *testing.T) {
	ds := tinyDataset(t)
	cfg := DefaultJWINSConfig()
	cfg.DisableWavelet = true // parameter domain makes the bookkeeping transparent
	cfg.Alphas = FixedAlpha(0.25)
	cfg.FloatCodec = codec.Raw32{}
	dim := 16
	model := &stubModel{params: make([]float64, dim)}
	node, err := NewJWINS(0, model, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	// Fabricate parameter changes before Share: indices 0-3 move a lot,
	// index 7 a little, so TopK with k = 25% * 16 = 4 selects exactly 0-3.
	model.params[0] = 10
	model.params[1] = 9
	model.params[2] = 8
	model.params[3] = 7
	model.params[7] = 0.1
	if _, _, err := node.Share(0); err != nil {
		t.Fatal(err)
	}
	if shared := sharedIndices(node); !slices.Equal(shared, []int{0, 1, 2, 3}) {
		t.Fatalf("shared indices %v, want [0 1 2 3]", shared)
	}
	if err := node.Aggregate(0, topology.Weights{Self: 1, Neighbor: map[int]float64{}}, nil); err != nil {
		t.Fatal(err)
	}
	// Shared index 3 was reset; no averaging change happened (self weight 1),
	// so its score must be ~0 while index 7 keeps its accumulated score.
	v := node.Accumulator()
	if math.Abs(v[3]) > 1e-6 {
		t.Fatalf("V[3] = %v, want ~0 after reset", v[3])
	}
	if math.Abs(v[7]-0.1) > 1e-6 {
		t.Fatalf("V[7] = %v, want 0.1 retained", v[7])
	}
}

func TestRandomSamplingSeedRegeneration(t *testing.T) {
	ds := tinyDataset(t)
	dim := 50
	params := make([]float64, dim)
	for i := range params {
		params[i] = float64(i)
	}
	node, err := NewRandomSampling(0, &stubModel{params: params}, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, 0.2, codec.Raw32{}, vec.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	payload, bd, err := node.Share(0)
	if err != nil {
		t.Fatal(err)
	}
	// Seeded metadata: constant-size regardless of k.
	if bd.Meta > 32 {
		t.Fatalf("seeded metadata too large: %d bytes", bd.Meta)
	}
	var sv codec.SparseVector
	if err := codec.DecodeSparseInto(&sv, payload); err != nil {
		t.Fatal(err)
	}
	if len(sv.Indices) != 10 {
		t.Fatalf("decoded %d indices, want 10", len(sv.Indices))
	}
	for pos, idx := range sv.Indices {
		if sv.Values[pos] != float32(params[idx]) {
			t.Fatalf("value mismatch at %d", idx)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	ds := tinyDataset(t)
	model := &stubModel{params: make([]float64, 8)}
	loader := stubLoader(t, ds)
	if _, err := NewFullSharing(0, model, loader, TrainOpts{LR: 0, LocalSteps: 1}, nil); err == nil {
		t.Fatal("zero LR accepted")
	}
	if _, err := NewRandomSampling(0, model, loader, TrainOpts{LR: 0.1, LocalSteps: 1}, 1.5, nil, vec.NewRNG(1)); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	cfg := DefaultJWINSConfig()
	cfg.Wavelet = "nope"
	if _, err := NewJWINS(0, model, loader, TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(1)); err == nil {
		t.Fatal("unknown wavelet accepted")
	}
	cfg = DefaultJWINSConfig()
	cfg.Alphas = AlphaDist{}
	if _, err := NewJWINS(0, model, loader, TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(1)); err == nil {
		t.Fatal("empty alpha distribution accepted")
	}
}

func TestAggregateRejectsUnknownSender(t *testing.T) {
	ds := tinyDataset(t)
	node, err := NewFullSharing(0, &stubModel{params: make([]float64, 8)}, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, codec.Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := node.Share(0)
	if err != nil {
		t.Fatal(err)
	}
	err = node.Aggregate(0, topology.Weights{Self: 1, Neighbor: map[int]float64{}}, map[int][]byte{5: payload})
	if err == nil {
		t.Fatal("expected error for sender without weight")
	}
}
