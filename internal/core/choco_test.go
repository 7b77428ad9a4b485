package core

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/topology"
	"repro/internal/vec"
)

func TestChocoConfigValidation(t *testing.T) {
	model := &stubModel{params: make([]float64, 8)}
	loader := stubLoader(t, tinyDataset(t))
	opts := TrainOpts{LR: 0.1, LocalSteps: 1}
	if _, err := NewChoco(0, model, loader, opts, ChocoConfig{Fraction: 0, Gamma: 0.5}); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := NewChoco(0, model, loader, opts, ChocoConfig{Fraction: 0.2, Gamma: 0}); err == nil {
		t.Fatal("zero gamma accepted")
	}
	if _, err := NewChoco(0, model, loader, TrainOpts{}, ChocoConfig{Fraction: 0.2, Gamma: 0.5}); err == nil {
		t.Fatal("invalid train opts accepted")
	}
}

// chocoFleet builds n CHOCO nodes on stub models with parameters drawn from
// rng at the given scale.
func chocoFleet(t *testing.T, n, dim int, scale float64, rng *vec.RNG, cfg ChocoConfig) []Node {
	t.Helper()
	ds := tinyDataset(t)
	var nodes []Node
	for i := 0; i < n; i++ {
		params := make([]float64, dim)
		for k := range params {
			params[k] = rng.NormFloat64() * scale
		}
		node, err := NewChoco(i, &stubModel{params: params}, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	return nodes
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
	nodes := chocoFleet(t, n, dim, 1, rng, ChocoConfig{Fraction: 1, Gamma: 1, FloatCodec: codec.Raw32{}})
	want := make([]float64, dim)
	for _, node := range nodes {
		for k, v := range node.Model().(*stubModel).params {
			want[k] += v / n
		}
	}
	for round := 0; round < 80; round++ {
		runConsensusRound(t, nodes, g, w, round)
	}
	for i, node := range nodes {
		got := node.Model().(*stubModel).params
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
	nodes := chocoFleet(t, n, dim, 2, rng, ChocoConfig{Fraction: 0.2, Gamma: 0.25, FloatCodec: codec.Raw32{}})
	spread := func() float64 {
		var worst float64
		for k := 0; k < dim; k++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, node := range nodes {
				p := node.Model().(*stubModel).params
				lo = math.Min(lo, p[k])
				hi = math.Max(hi, p[k])
			}
			worst = math.Max(worst, hi-lo)
		}
		return worst
	}
	before := spread()
	for round := 0; round < 400; round++ {
		runConsensusRound(t, nodes, g, w, round)
	}
	if after := spread(); after > before/4 {
		t.Fatalf("CHOCO disagreement did not contract: %v -> %v", before, after)
	}
}

func TestChocoPayloadBudget(t *testing.T) {
	node, err := NewChoco(0, &stubModel{params: make([]float64, 1000)}, stubLoader(t, tinyDataset(t)), TrainOpts{LR: 0.1, LocalSteps: 1},
		ChocoConfig{Fraction: 0.1, Gamma: 0.5, FloatCodec: codec.Raw32{}})
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
	node, err := NewChoco(0, &stubModel{params: make([]float64, 8)}, stubLoader(t, tinyDataset(t)), TrainOpts{LR: 0.1, LocalSteps: 1},
		ChocoConfig{Fraction: 0.5, Gamma: 0.5})
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

// TestChocoSelfReplicaMatchesWire: the q_i a node adds to its own x̂_i and
// s_i is, bit for bit, the q_i its neighbours decode from its payload —
// widened float32 values where it shares, zero elsewhere — on the dense
// (fraction 1) and the top-k branch, over rounds whose differences are not
// float32 values.
func TestChocoSelfReplicaMatchesWire(t *testing.T) {
	for _, fraction := range []float64{1, 0.2} {
		rng := vec.NewRNG(12)
		g, err := topology.Regular(6, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		w := topology.MetropolisHastings(g)
		nodes := chocoFleet(t, 6, 300, 1, rng, ChocoConfig{Fraction: fraction, Gamma: 0.5})
		for round := 0; round < 4; round++ {
			for i, node := range nodes {
				payload, _, err := node.Share(round)
				if err != nil {
					t.Fatal(err)
				}
				var sv codec.SparseVector
				if err := codec.DecodeSparseInto(&sv, payload); err != nil {
					t.Fatal(err)
				}
				want := make([]float64, sv.Dim)
				for j, v := range sv.Values {
					if sv.Indices != nil {
						j = sv.Indices[j]
					}
					want[j] = float64(v)
				}
				if got := node.(*ChocoNode).qSelf; !floatsBitEqual(got, want) {
					t.Fatalf("fraction %v, round %d, node %d: q_i differs from what its payload decodes to", fraction, round, i)
				}
			}
			runConsensusRound(t, nodes, g, w, round)
		}
	}
}

// TestChocoShareAllocationCeiling holds CHOCO to the ceilings
// TestJWINSHotPathAllocationFree sets for JWINS. With a warm working set and
// the raw32 codec, Share keeps the difference vector, the top-k selection,
// the gathered values and the encode intermediates in the call's scratch and
// encodes into the buffer handed back after the last Share, so it allocates
// nothing; with nothing handed back the payload is the one allocation. A warm
// Aggregate allocates nothing under either codec, with or without a decode
// cache.
func TestChocoShareAllocationCeiling(t *testing.T) {
	const dim = 20_000
	for _, fc := range []codec.FloatCodec{codec.Raw32{}, codec.PlaneFlate32{}} {
		t.Run(fc.Name(), func(t *testing.T) {
			nodes := chocoFleet(t, 2, dim, 1, vec.NewRNG(1), ChocoConfig{Fraction: 0.2, Gamma: 0.6, FloatCodec: fc})
			a, b := nodes[0].(*ChocoNode), nodes[1].(*ChocoNode)
			share := func() {
				p, _, err := a.Share(0)
				if err != nil {
					t.Fatal(err)
				}
				a.RecyclePayload(p)
			}
			share()
			if _, ok := fc.(codec.Raw32); ok {
				if allocs := testing.AllocsPerRun(30, share); allocs != 0 {
					t.Fatalf("Share allocates %v per op with a warm working set and a handed-back payload, want 0", allocs)
				}
				if allocs := testing.AllocsPerRun(30, func() {
					if _, _, err := a.Share(0); err != nil {
						t.Fatal(err)
					}
				}); allocs > 1 {
					t.Fatalf("Share allocates %v per op with a warm working set and no handed-back payload, want 1 (the payload)", allocs)
				}
			}

			payload, _, err := b.Share(0)
			if err != nil {
				t.Fatal(err)
			}
			w := topology.Weights{Self: 0.5, Neighbor: map[int]float64{1: 0.5}}
			msgs := map[int][]byte{1: payload}
			for _, cache := range []*DecodeCache{nil, new(DecodeCache)} {
				a.SetDecodeCache(cache)
				aggregate := func() {
					if err := a.Aggregate(0, w, msgs); err != nil {
						t.Fatal(err)
					}
				}
				aggregate()
				if allocs := testing.AllocsPerRun(30, aggregate); allocs != 0 {
					t.Fatalf("Aggregate (cache %v) allocates %v per op with a warm working set, want 0", cache != nil, allocs)
				}
			}
		})
	}
}
