package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/topology"
	"repro/internal/vec"
)

// TestQuickShareBudgetRespected: for any alpha and model size, the number of
// shared coefficients equals round(alpha * coeffDim) clamped to [1, coeffDim].
func TestQuickShareBudgetRespected(t *testing.T) {
	ds := tinyDataset(t)
	f := func(seed uint64, rawDim uint16, rawAlpha uint8) bool {
		dim := int(rawDim)%2000 + 8
		alpha := (float64(rawAlpha%100) + 1) / 100
		cfg := DefaultJWINSConfig()
		cfg.Alphas = FixedAlpha(alpha)
		cfg.FloatCodec = codec.Raw32{}
		model := &stubModel{params: make([]float64, dim)}
		r := vec.NewRNG(seed)
		for i := range model.params {
			model.params[i] = r.NormFloat64()
		}
		node, err := NewJWINS(0, model, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(seed))
		if err != nil {
			return false
		}
		payload, _, err := node.Share(0)
		if err != nil {
			return false
		}
		var sv codec.SparseVector
		if err := codec.DecodeSparseInto(&sv, payload); err != nil {
			return false
		}
		want := int(math.Round(alpha * float64(node.coeffDim)))
		if want < 1 {
			want = 1
		}
		if want > node.coeffDim {
			want = node.coeffDim
		}
		return len(sv.Values) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSenderReceiverAgree: whatever the sender selected, the receiver
// decodes exactly those (index, value) pairs — the wire is faithful.
func TestQuickSenderReceiverAgree(t *testing.T) {
	ds := tinyDataset(t)
	f := func(seed uint64, rawDim uint16) bool {
		dim := int(rawDim)%1000 + 8
		cfg := DefaultJWINSConfig()
		cfg.FloatCodec = codec.Raw32{}
		model := &stubModel{params: make([]float64, dim)}
		r := vec.NewRNG(seed)
		for i := range model.params {
			model.params[i] = r.NormFloat64()
		}
		node, err := NewJWINS(0, model, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(seed))
		if err != nil {
			return false
		}
		payload, _, err := node.Share(0)
		if err != nil {
			return false
		}
		var sv codec.SparseVector
		if err := codec.DecodeSparseInto(&sv, payload); err != nil {
			return false
		}
		// Decoded indices must match the node's own record of what it shared
		// (nil for dense payloads means "all").
		shared := sharedIndices(node)
		if sv.Indices == nil {
			if len(sv.Values) != node.coeffDim {
				return false
			}
			return true
		}
		if len(sv.Indices) != len(shared) {
			return false
		}
		for i := range shared {
			if sv.Indices[i] != shared[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSelfAggregateIsStable: aggregating with no neighbors must leave
// the model unchanged up to float32 wire quantization and DWT round trip,
// for any model content.
func TestQuickSelfAggregateIsStable(t *testing.T) {
	ds := tinyDataset(t)
	f := func(seed uint64, rawDim uint16) bool {
		dim := int(rawDim)%1000 + 8
		cfg := DefaultJWINSConfig()
		cfg.FloatCodec = codec.Raw32{}
		model := &stubModel{params: make([]float64, dim)}
		r := vec.NewRNG(seed)
		for i := range model.params {
			model.params[i] = r.NormFloat64()
		}
		before := slices.Clone(model.params)
		node, err := NewJWINS(0, model, stubLoader(t, ds), TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, vec.NewRNG(seed))
		if err != nil {
			return false
		}
		if _, _, err := node.Share(0); err != nil {
			return false
		}
		if err := node.Aggregate(0, topology.Weights{Self: 1, Neighbor: map[int]float64{}}, nil); err != nil {
			return false
		}
		after := make([]float64, dim)
		node.Model().CopyParams(after)
		// Self-aggregation = DWT -> weighted average with itself -> IDWT.
		return vec.MSE(before, after) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
