package core

import (
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/topology"
	"repro/internal/vec"
)

// TestBandAdaptiveSelectsBudget: the adaptive selector must return exactly k
// sorted distinct indices and keep the node functional over rounds.
func TestBandAdaptiveSelectsBudget(t *testing.T) {
	ds := tinyDataset(t)
	cfg := DefaultJWINSConfig()
	cfg.BandAdaptive = true
	cfg.Alphas = FixedAlpha(0.25)
	cfg.FloatCodec = codec.Raw32{}
	dim := 128
	model := &stubModel{params: make([]float64, dim)}
	node, err := NewJWINS(0, model, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(78)
	for round := 0; round < 5; round++ {
		for i := range model.params {
			model.params[i] += rng.NormFloat64() * 0.1
		}
		payload, _, err := node.Share(round)
		if err != nil {
			t.Fatal(err)
		}
		var sv codec.SparseVector
		if err := codec.DecodeSparseInto(&sv, payload); err != nil {
			t.Fatal(err)
		}
		k := int(0.25*float64(node.coeffDim) + 0.5)
		if len(sv.Indices) != k {
			t.Fatalf("round %d: sent %d indices, want %d", round, len(sv.Indices), k)
		}
		for i := 1; i < len(sv.Indices); i++ {
			if sv.Indices[i] <= sv.Indices[i-1] {
				t.Fatalf("indices not strictly increasing: %v", sv.Indices)
			}
		}
		if shared := sharedIndices(node); !slices.Equal(shared, sv.Indices) {
			t.Fatalf("round %d: marked %v, sent %v", round, shared, sv.Indices)
		}
		if err := node.Aggregate(round, topology.Weights{Self: 1, Neighbor: map[int]float64{}}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBandAdaptiveCoversActiveBands: when importance mass concentrates in
// one band, most of the budget must land there.
func TestBandAdaptiveCoversActiveBands(t *testing.T) {
	ds := tinyDataset(t)
	cfg := DefaultJWINSConfig()
	cfg.BandAdaptive = true
	cfg.DisableAccumulation = false
	cfg.Alphas = FixedAlpha(0.1)
	cfg.FloatCodec = codec.Raw32{}
	dim := 256
	model := &stubModel{params: make([]float64, dim)}
	node, err := NewJWINS(0, model, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(79))
	if err != nil {
		t.Fatal(err)
	}
	// A smooth (low-frequency) parameter change concentrates wavelet mass in
	// the approximation band, which occupies the front of the layout.
	for i := range model.params {
		model.params[i] = 5.0 // constant shift = pure low frequency
	}
	if _, _, err := node.Share(0); err != nil {
		t.Fatal(err)
	}
	front := 0
	cut := node.coeffDim / 8 // cA4+cD4 region for 4 levels
	shared := sharedIndices(node)
	for _, idx := range shared {
		if idx < cut {
			front++
		}
	}
	if front < len(shared)/2 {
		t.Fatalf("only %d/%d selections in the low-frequency region for a smooth change",
			front, len(shared))
	}
}
