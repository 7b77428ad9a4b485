package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/topology"
	"repro/internal/vec"
)

// pipelineFleet builds n identical-shape JWINS nodes with deterministic
// per-node parameters and RNG seeds, so two calls produce two fleets whose
// nodes are bit-identical pair-wise.
func pipelineFleet(t *testing.T, n, dim int, cfg JWINSConfig) []*JWINSNode {
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

// perturb applies the same deterministic pseudo-training step to a fleet's
// models so share deltas are non-trivial.
func perturb(nodes []*JWINSNode, round int) {
	for i, n := range nodes {
		m := n.Model().(*stubModel)
		r := vec.NewRNG(uint64(9000 + 31*i + round))
		for j := range m.params {
			m.params[j] += 0.01 * r.NormFloat64()
		}
	}
}

func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestShareBatchBitIdenticalToPerNode is the pipeline half of the
// differential test layer: for several configs (default, raw32, band
// adaptive, decayed accumulation, batch of one), a batched fleet's payloads
// and every per-node observable must match the per-node reference path bit
// for bit across rounds, including across an aggregate exchange.
func TestShareBatchBitIdenticalToPerNode(t *testing.T) {
	raw := DefaultJWINSConfig()
	raw.FloatCodec = codec.Raw32{}
	band := DefaultJWINSConfig()
	band.BandAdaptive = true
	decay := DefaultJWINSConfig()
	decay.AccumulationDecay = 0.9
	decay.FloatCodec = codec.Raw32{}
	cases := []struct {
		name  string
		cfg   JWINSConfig
		batch int
	}{
		{"default-flate32", DefaultJWINSConfig(), 8},
		{"raw32", raw, 8},
		{"band-adaptive", band, 4},
		{"decay", decay, 8},
		{"batch-of-one", raw, 1},
	}
	const dim = 700 // odd-ish dim exercises the padded layout
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := pipelineFleet(t, tc.batch, dim, tc.cfg)
			bat := pipelineFleet(t, tc.batch, dim, tc.cfg)
			var pipe SharePipeline
			payloads := make([][]byte, tc.batch)
			bds := make([]codec.ByteBreakdown, tc.batch)
			w := topology.Weights{Self: 1.0}
			for round := 0; round < 3; round++ {
				perturb(ref, round)
				perturb(bat, round)
				if err := pipe.ShareBatch(bat, payloads, bds); err != nil {
					t.Fatal(err)
				}
				for i, rn := range ref {
					refPayload, refBD, err := rn.Share(round)
					if err != nil {
						t.Fatal(err)
					}
					bn := bat[i]
					if !bytes.Equal(refPayload, payloads[i]) {
						t.Fatalf("round %d node %d: batched payload differs from per-node Share", round, i)
					}
					if refBD != bds[i] {
						t.Fatalf("round %d node %d: byte breakdown differs: %+v vs %+v", round, i, refBD, bds[i])
					}
					if rn.LastAlpha != bn.LastAlpha {
						t.Fatalf("round %d node %d: alpha %v vs %v", round, i, rn.LastAlpha, bn.LastAlpha)
					}
					if !floatsBitEqual(rn.acc, bn.acc) {
						t.Fatalf("round %d node %d: accumulators diverge", round, i)
					}
					if len(rn.lastShared) != len(bn.lastShared) {
						t.Fatalf("round %d node %d: selection sizes diverge", round, i)
					}
					for j := range rn.lastShared {
						if rn.lastShared[j] != bn.lastShared[j] {
							t.Fatalf("round %d node %d: selections diverge at %d", round, i, j)
						}
					}
					// Self-aggregate both fleets so persistent state (model,
					// startPar, accumulator fold) is exercised across rounds.
					if err := rn.Aggregate(round, w, nil); err != nil {
						t.Fatal(err)
					}
					if err := bn.Aggregate(round, w, nil); err != nil {
						t.Fatal(err)
					}
					if !floatsBitEqual(rn.Model().(*stubModel).params, bn.Model().(*stubModel).params) {
						t.Fatalf("round %d node %d: models diverge after aggregate", round, i)
					}
				}
			}
		})
	}
}

// TestShareBatchPlanChecks covers the batch eligibility contract: mixed
// plans and identity transforms are rejected, not silently mis-batched.
func TestShareBatchPlanChecks(t *testing.T) {
	cfg := DefaultJWINSConfig()
	nodes := pipelineFleet(t, 2, 256, cfg)
	other := pipelineFleet(t, 1, 300, cfg) // different dim -> different plan
	var pipe SharePipeline
	payloads := make([][]byte, 3)
	bds := make([]codec.ByteBreakdown, 3)
	if err := pipe.ShareBatch(append(nodes, other...), payloads, bds); err == nil {
		t.Fatal("mixed-plan batch was not rejected")
	}
	noWavelet := DefaultJWINSConfig()
	noWavelet.DisableWavelet = true
	ident := pipelineFleet(t, 1, 256, noWavelet)
	if ident[0].SharePlan() != nil {
		t.Fatal("identity transform reported a shared plan")
	}
	if err := pipe.ShareBatch(ident, payloads[:1], bds[:1]); err == nil {
		t.Fatal("identity-transform batch was not rejected")
	}
	if err := pipe.ShareBatch(nil, nil, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

// TestShareBatchAllocationBudget holds the batch path to the per-node path's
// budget, well inside the engine's per-event ceiling (<= 4 allocs/event,
// internal/perf): with warm working sets and the raw32 codec, the batched share
// itself allocates its payload and nothing else.
func TestShareBatchAllocationBudget(t *testing.T) {
	const (
		batch = 8
		dim   = 20_000
	)
	cfg := DefaultJWINSConfig()
	cfg.FloatCodec = codec.Raw32{}
	nodes := pipelineFleet(t, batch, dim, cfg)
	var pipe SharePipeline
	payloads := make([][]byte, batch)
	bds := make([]codec.ByteBreakdown, batch)
	round := 0
	warm := func() {
		perturb(nodes, round)
		round++
		if err := pipe.ShareBatch(nodes, payloads, bds); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the working sets, and let every node's k-sized index copy reach
	// the largest partial cut-off.
	for i := 0; i < 16; i++ {
		warm()
	}
	perShare := testing.AllocsPerRun(20, warm) / batch
	t.Logf("batched share: %.2f allocs/share (batch %d)", perShare, batch)
	// Measured 2.00: the payload, and the RNG perturb makes per node.
	if perShare > 3 {
		t.Fatalf("batched share allocates %.2f per node, want <= 3", perShare)
	}
}
