package core

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/topology"
	"repro/internal/vec"
)

// buildLearningFleet creates a small JWINS fleet over a real model for
// end-to-end accumulator-variant comparisons.
func buildLearningFleet(t *testing.T, cfg JWINSConfig, seed uint64) ([]Node, *datasets.Dataset, *topology.Graph, []topology.Weights) {
	t.Helper()
	rng := vec.NewRNG(seed)
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Channels: 1, Height: 8, Width: 8, TrainPerClass: 30, TestPerClass: 8,
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
	w := topology.MetropolisHastings(g)
	template := nn.NewMLP(64, 16, 4, rng.Split())
	initial := make([]float64, template.ParamCount())
	template.CopyParams(initial)
	var nodes []Node
	for i := 0; i < n; i++ {
		nodeRNG := rng.Split()
		model := nn.NewMLP(64, 16, 4, nodeRNG)
		model.SetParams(initial)
		loader := datasets.NewLoader(ds, parts[i], 8, nodeRNG.Split())
		node, err := NewJWINS(i, model, loader, TrainOpts{LR: 0.05, LocalSteps: 2}, cfg, nodeRNG.Split())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	return nodes, ds, g, w
}

func trainRounds(t *testing.T, nodes []Node, g *topology.Graph, w []topology.Weights, rounds int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		for _, nd := range nodes {
			nd.LocalTrain()
		}
		runConsensusRound(t, nodes, g, w, round)
	}
}

func meanAccuracy(ds *datasets.Dataset, nodes []Node) float64 {
	var acc float64
	for _, nd := range nodes {
		_, a := datasets.Evaluate(ds, nd.Model(), 16)
		acc += a / float64(len(nodes))
	}
	return acc
}

// TestEq4VariantsBothLearn: the accumulator as eq. (4) reads it (the default)
// and the Figure 8 ablation that ranks by the round's change alone are both
// working error-feedback schemes and must both reach useful accuracy.
func TestEq4VariantsBothLearn(t *testing.T) {
	for _, disable := range []bool{false, true} {
		cfg := DefaultJWINSConfig()
		cfg.FloatCodec = codec.Raw32{}
		cfg.DisableAccumulation = disable
		nodes, ds, g, w := buildLearningFleet(t, cfg, 404)
		trainRounds(t, nodes, g, w, 25)
		if acc := meanAccuracy(ds, nodes); acc < 0.5 {
			t.Fatalf("DisableAccumulation=%v: accuracy %.2f, want > 0.5 (chance 0.25)", disable, acc)
		}
	}
}
