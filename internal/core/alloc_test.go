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

// TestJWINSHotPathAllocationFree is the zero-allocation acceptance guard:
// with a warm working set, Aggregate allocates nothing under either float
// codec, and Share under raw32 (no compress/flate internals) allocates
// nothing once the engine hands its payload back (PayloadRecycler) — the next
// Share encodes into that buffer — and only the payload otherwise.
func TestJWINSHotPathAllocationFree(t *testing.T) {
	const dim = 20_000
	for _, fc := range []codec.FloatCodec{codec.Raw32{}, codec.PlaneFlate32{}} {
		t.Run(fc.Name(), func(t *testing.T) {
			a, b := allocPair(t, dim, fc)
			round := 0
			share := func() {
				p, _, err := a.Share(round)
				if err != nil {
					t.Fatal(err)
				}
				a.RecyclePayload(p)
				round++
			}
			// The randomized cut-off resizes the payload every round. Warm up
			// until every α of the default distribution, the full share
			// included, has been drawn: the handed-back buffer, the k-sized
			// index copy and the working set then hold their largest sizes.
			for i := 0; i < 100; i++ {
				share()
			}
			if _, ok := fc.(codec.Raw32); ok {
				if allocs := testing.AllocsPerRun(30, share); allocs != 0 {
					t.Fatalf("Share allocates %v per op with warm scratch and a handed-back payload, want 0", allocs)
				}
				// With nothing handed back (the async engine) the payload is
				// the one allocation.
				allocs := testing.AllocsPerRun(30, func() {
					if _, _, err := a.Share(round); err != nil {
						t.Fatal(err)
					}
					round++
				})
				if allocs > 1 {
					t.Fatalf("Share allocates %v per op with warm scratch and no handed-back payload, want 1 (the payload)", allocs)
				}
			}

			payload, _, err := b.Share(0)
			if err != nil {
				t.Fatal(err)
			}
			w := topology.Weights{Self: 0.5, Neighbor: map[int]float64{1: 0.5}}
			msgs := map[int][]byte{1: payload}
			if err := a.Aggregate(round, w, msgs); err != nil {
				t.Fatal(err)
			}
			aggAllocs := testing.AllocsPerRun(30, func() {
				if err := a.Aggregate(round, w, msgs); err != nil {
					t.Fatal(err)
				}
			})
			if aggAllocs > 0 {
				t.Fatalf("Aggregate allocates %v per op with warm scratch, want 0", aggAllocs)
			}
		})
	}
}
