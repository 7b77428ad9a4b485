package core

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/datasets"
	"repro/internal/topology"
	"repro/internal/vec"
)

// allocPair builds two connected JWINS nodes over a flat stub model, bypassing
// SGD so only the share/aggregate pipeline runs.
func allocPair(t *testing.T, dim int, fc codec.FloatCodec) (*JWINSNode, *JWINSNode) {
	t.Helper()
	ds := tinyDataset(t)
	rng := vec.NewRNG(3)
	loader := datasets.NewLoader(ds, []int{0, 1, 2, 3}, 2, rng.Split())
	opts := TrainOpts{LR: 0.1, LocalSteps: 1}
	cfg := DefaultJWINSConfig()
	cfg.FloatCodec = fc
	mk := func(id int, seed uint64) *JWINSNode {
		params := make([]float64, dim)
		r := vec.NewRNG(seed)
		for i := range params {
			params[i] = r.NormFloat64()
		}
		n, err := NewJWINS(id, &stubModel{params: params}, loader, opts, cfg, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return mk(0, 1), mk(1, 2)
}

// TestJWINSHotPathAllocationFree is the zero-allocation acceptance guard: with
// a warm working set and the raw32 codec (no compress/flate internals),
// Aggregate must not allocate at all, and Share must allocate only the
// returned payload (payloads outlive the call, so that one allocation is
// irreducible by design).
func TestJWINSHotPathAllocationFree(t *testing.T) {
	const dim = 20_000
	a, b := allocPair(t, dim, codec.Raw32{})
	if _, _, err := a.Share(0); err != nil {
		t.Fatal(err)
	}
	payload, _, err := b.Share(0)
	if err != nil {
		t.Fatal(err)
	}
	w := topology.Weights{Self: 0.5, Neighbor: map[int]float64{1: 0.5}}
	msgs := map[int][]byte{1: payload}
	if err := a.Aggregate(0, w, msgs); err != nil {
		t.Fatal(err)
	}

	round := 1
	shareAllocs := testing.AllocsPerRun(30, func() {
		if _, _, err := a.Share(round); err != nil {
			t.Fatal(err)
		}
		round++
	})
	// The randomized cut-off resizes the payload every round, so allow the
	// payload allocation plus an occasional growth of the working set or of
	// the node's k-sized index copy.
	if shareAllocs > 3 {
		t.Fatalf("Share allocates %v per op with warm scratch, want <= 3 (payload only)", shareAllocs)
	}

	aggAllocs := testing.AllocsPerRun(30, func() {
		if err := a.Aggregate(round, w, msgs); err != nil {
			t.Fatal(err)
		}
	})
	if aggAllocs > 0 {
		t.Fatalf("Aggregate allocates %v per op with warm scratch, want 0", aggAllocs)
	}
}

// TestJWINSBandAdaptiveShareAllocationBudget extends the hot-path guard to
// the band-adaptive selection path: its per-band masses, the selection set,
// and the merged index list all live in the call's Scratch, so a warm
// band-adaptive Share must cost no more than the default path — the payload
// plus occasional scratch growth.
func TestJWINSBandAdaptiveShareAllocationBudget(t *testing.T) {
	const dim = 20_000
	ds := tinyDataset(t)
	rng := vec.NewRNG(3)
	loader := datasets.NewLoader(ds, []int{0, 1, 2, 3}, 2, rng.Split())
	cfg := DefaultJWINSConfig()
	cfg.FloatCodec = codec.Raw32{}
	cfg.BandAdaptive = true
	params := make([]float64, dim)
	r := vec.NewRNG(1)
	for i := range params {
		params[i] = r.NormFloat64()
	}
	n, err := NewJWINS(0, &stubModel{params: params}, loader, TrainOpts{LR: 0.1, LocalSteps: 1}, cfg, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	round := 0
	warm := func() {
		m := n.Model().(*stubModel)
		pr := vec.NewRNG(uint64(7000 + round))
		for i := range m.params {
			m.params[i] += 0.01 * pr.NormFloat64()
		}
		if _, _, err := n.Share(round); err != nil {
			t.Fatal(err)
		}
		round++
	}
	warm()
	warm()
	shareAllocs := testing.AllocsPerRun(30, warm)
	// The band path keeps one map for the selection set; Go maps shrink
	// lazily, so allow the same payload + scratch budget as the default path
	// plus occasional bucket churn.
	if shareAllocs > 4 {
		t.Fatalf("band-adaptive Share allocates %v per op with warm scratch, want <= 4", shareAllocs)
	}
}
