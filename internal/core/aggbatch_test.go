package core

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/topology"
)

// ringExchange runs one full share+aggregate round over a ring: every node
// shares, then aggregates its two ring neighbors' payloads under uniform
// Metropolis weights. ref aggregates per-node; bat through AggregateBatch.
// Both fleets produce their own payloads (Share is deterministic, the fleets
// are bit-identical pair-wise, and payload buffers are freshly allocated).
func ringExchange(t *testing.T, ref, bat []*JWINSNode, pipe *AggregatePipeline, round int) {
	t.Helper()
	n := len(ref)
	share := func(fleet []*JWINSNode) [][]byte {
		payloads := make([][]byte, n)
		for i, nd := range fleet {
			p, _, err := nd.Share(round)
			if err != nil {
				t.Fatal(err)
			}
			payloads[i] = p
		}
		return payloads
	}
	weights := func(i int) topology.Weights {
		w := topology.Weights{Self: 1.0, Neighbor: map[int]float64{}}
		if n > 1 {
			w = topology.Weights{Self: 1.0 / 3, Neighbor: map[int]float64{
				(i + 1) % n: 1.0 / 3, (i + n - 1) % n: 1.0 / 3,
			}}
		}
		return w
	}
	msgsFor := func(payloads [][]byte, i int) map[int][]byte {
		if n == 1 {
			return nil
		}
		return map[int][]byte{
			(i + 1) % n:     payloads[(i+1)%n],
			(i + n - 1) % n: payloads[(i+n-1)%n],
		}
	}

	refPayloads := share(ref)
	for i, nd := range ref {
		if err := nd.Aggregate(round, weights(i), msgsFor(refPayloads, i)); err != nil {
			t.Fatal(err)
		}
	}

	batPayloads := share(bat)
	ws := make([]topology.Weights, n)
	msgs := make([]map[int][]byte, n)
	for i := range bat {
		ws[i] = weights(i)
		msgs[i] = msgsFor(batPayloads, i)
	}
	if err := pipe.AggregateBatch(bat, ws, msgs); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateBatchBitIdenticalToPerNode is the aggregate half of the
// pipeline differential layer: across several configs (accumulation on/off,
// the literal eq.-4 variant, decay, band-adaptive selection, a batch of one)
// and three exchange rounds, a batched fleet's every per-node observable —
// installed model, accumulator, round baseline, next round's payload — must
// match the per-node Aggregate path bit for bit. A second pass attaches a
// shared DecodeCache to the batched fleet, proving cached decodes are
// indistinguishable from fresh ones.
func TestAggregateBatchBitIdenticalToPerNode(t *testing.T) {
	raw := DefaultJWINSConfig()
	raw.FloatCodec = codec.Raw32{}
	noAcc := DefaultJWINSConfig()
	noAcc.DisableAccumulation = true
	eq4 := DefaultJWINSConfig()
	eq4.AccumulateLiteralEq4 = true
	eq4.FloatCodec = codec.Raw32{}
	decay := DefaultJWINSConfig()
	decay.AccumulationDecay = 0.9
	band := DefaultJWINSConfig()
	band.BandAdaptive = true
	cases := []struct {
		name  string
		cfg   JWINSConfig
		batch int
	}{
		{"default-flate32", DefaultJWINSConfig(), 8},
		{"raw32", raw, 8},
		{"no-accumulation", noAcc, 8},
		{"literal-eq4", eq4, 8},
		{"decay", decay, 4},
		{"band-adaptive", band, 4},
		{"batch-of-one", raw, 1},
	}
	const dim = 700 // odd-ish dim exercises the padded layout
	for _, tc := range cases {
		for _, cached := range []bool{false, true} {
			name := tc.name
			if cached {
				name += "/decode-cache"
			}
			t.Run(name, func(t *testing.T) {
				ref := pipelineFleet(t, tc.batch, dim, tc.cfg)
				bat := pipelineFleet(t, tc.batch, dim, tc.cfg)
				if cached {
					dc := &DecodeCache{}
					for _, nd := range bat {
						nd.SetDecodeCache(dc)
					}
				}
				var pipe AggregatePipeline
				for round := 0; round < 3; round++ {
					perturb(ref, round)
					perturb(bat, round)
					ringExchange(t, ref, bat, &pipe, round)
					for i, rn := range ref {
						bn := bat[i]
						if !floatsBitEqual(rn.Model().(*stubModel).params, bn.Model().(*stubModel).params) {
							t.Fatalf("round %d node %d: models diverge after aggregate", round, i)
						}
						if !floatsBitEqual(rn.acc, bn.acc) {
							t.Fatalf("round %d node %d: accumulators diverge", round, i)
						}
						if !floatsBitEqual(rn.startPar, bn.startPar) {
							t.Fatalf("round %d node %d: round baselines diverge", round, i)
						}
						if rn.LastAlpha != bn.LastAlpha {
							t.Fatalf("round %d node %d: alpha %v vs %v", round, i, rn.LastAlpha, bn.LastAlpha)
						}
					}
				}
			})
		}
	}
}

// TestAggregateBatchPlanChecks covers the batch eligibility contract: mixed
// plans, identity transforms, and mis-sized inputs are rejected.
func TestAggregateBatchPlanChecks(t *testing.T) {
	cfg := DefaultJWINSConfig()
	nodes := pipelineFleet(t, 2, 256, cfg)
	other := pipelineFleet(t, 1, 300, cfg) // different dim -> different plan
	var pipe AggregatePipeline
	ws := []topology.Weights{{Self: 1}, {Self: 1}, {Self: 1}}
	msgs := make([]map[int][]byte, 3)
	if err := pipe.AggregateBatch(append(nodes, other...), ws, msgs); err == nil {
		t.Fatal("mixed-plan batch was not rejected")
	}
	noWavelet := DefaultJWINSConfig()
	noWavelet.DisableWavelet = true
	ident := pipelineFleet(t, 1, 256, noWavelet)
	if err := pipe.AggregateBatch(ident, ws[:1], msgs[:1]); err == nil {
		t.Fatal("identity-transform batch was not rejected")
	}
	if err := pipe.AggregateBatch(nodes, ws[:1], msgs[:2]); err == nil {
		t.Fatal("mis-sized inputs were not rejected")
	}
	if err := pipe.AggregateBatch(nil, nil, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

// TestAggregateBatchAllocationBudget holds the batched aggregate to the
// per-node path's budget: with warm working sets, the raw32 codec, and a
// shared decode cache, a batched aggregate allocates nothing but the cache's
// per-payload bookkeeping.
func TestAggregateBatchAllocationBudget(t *testing.T) {
	const (
		batch = 8
		dim   = 20_000
	)
	cfg := DefaultJWINSConfig()
	cfg.FloatCodec = codec.Raw32{}
	nodes := pipelineFleet(t, batch, dim, cfg)
	dc := &DecodeCache{}
	for _, nd := range nodes {
		nd.SetDecodeCache(dc)
	}
	var pipe AggregatePipeline
	ws := make([]topology.Weights, batch)
	msgs := make([]map[int][]byte, batch)
	round := 0
	warm := func() {
		perturb(nodes, round)
		payloads := make([][]byte, batch)
		for i, nd := range nodes {
			p, _, err := nd.Share(round)
			if err != nil {
				t.Fatal(err)
			}
			payloads[i] = p
		}
		round++
		for i := range nodes {
			ws[i] = topology.Weights{Self: 1.0 / 3, Neighbor: map[int]float64{
				(i + 1) % batch: 1.0 / 3, (i + batch - 1) % batch: 1.0 / 3,
			}}
			msgs[i] = map[int][]byte{
				(i + 1) % batch:         payloads[(i+1)%batch],
				(i + batch - 1) % batch: payloads[(i+batch-1)%batch],
			}
		}
		if err := pipe.AggregateBatch(nodes, ws, msgs); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()
	// The share/map setup above allocates (payloads, weight maps); measure
	// only the batched aggregate itself.
	var aggAllocs float64
	full := func() {
		perturb(nodes, round)
		payloads := make([][]byte, batch)
		for i, nd := range nodes {
			p, _, err := nd.Share(round)
			if err != nil {
				t.Fatal(err)
			}
			payloads[i] = p
		}
		round++
		for i := range nodes {
			msgs[i] = map[int][]byte{
				(i + 1) % batch:         payloads[(i+1)%batch],
				(i + batch - 1) % batch: payloads[(i+batch-1)%batch],
			}
		}
		aggAllocs += testing.AllocsPerRun(1, func() {
			if err := pipe.AggregateBatch(nodes, ws, msgs); err != nil {
				t.Fatal(err)
			}
		})
	}
	const runs = 10
	for i := 0; i < runs; i++ {
		full()
	}
	perAgg := aggAllocs / runs / batch
	t.Logf("batched aggregate: %.2f allocs/aggregate (batch %d)", perAgg, batch)
	if perAgg > 1 {
		t.Fatalf("batched aggregate allocates %.2f per node, want <= 1 (cache bookkeeping only)", perAgg)
	}
}
