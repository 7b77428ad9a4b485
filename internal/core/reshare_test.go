package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/topology"
	"repro/internal/vec"
)

// TestJWINSReShareCountsOnce: a node that shares, trains on, and shares again
// with no Aggregate between — a node rejoining after churn — must send, select
// and carry exactly what a node sharing once from the same base and
// parameters does, through the next Aggregate too. The parent's form
// (refJWINS) instead adds the abandoned iteration's change DWT(x1 - x0) to V
// a second time.
func TestJWINSReShareCountsOnce(t *testing.T) {
	const dim = 300
	cfg := DefaultJWINSConfig()
	cfg.DisableRandomCutoff = true // one k whatever the number of draws
	node := func() *JWINSNode { return jwinsFleet(t, 1, dim, cfg)[0] }
	twice, once := node(), node()
	x0 := slices.Clone(twice.model.(*stubModel).params)
	x1, x2 := slices.Clone(x0), slices.Clone(x0)
	r := vec.NewRNG(7)
	for j := range x0 {
		x1[j] += 0.1 * r.NormFloat64()
		x2[j] = x1[j] + 0.1*r.NormFloat64()
	}
	share := func(n Node, xs ...[]float64) []byte {
		var p []byte
		for _, x := range xs {
			copy(n.Model().(*stubModel).params, x)
			var err error
			if p, _, err = n.Share(0); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}

	if !bytes.Equal(share(twice, x1, x2), share(once, x2)) {
		t.Fatal("a re-share's payload differs from a single share's")
	}
	if !slices.Equal(twice.shared, once.shared) {
		t.Fatalf("a re-share selects %v, a single share %v", sharedIndices(twice), sharedIndices(once))
	}
	if !floatsBitEqual(twice.base, once.base) {
		t.Fatal("a re-share moved base")
	}
	for _, n := range []*JWINSNode{twice, once} {
		if err := n.Aggregate(0, topology.Weights{Self: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !floatsBitEqual(twice.base, once.base) {
		t.Fatal("base after the re-share's Aggregate differs from a single share's")
	}

	refTwice, refOnce := newRefJWINS(node()), newRefJWINS(node())
	share(refTwice, x1, x2)
	share(refOnce, x2)
	extra, dx := make([]float64, refOnce.coeffDim), make([]float64, len(x1))
	vec.DiffInto(dx, x1, x0)
	s := acquireScratch()
	refOnce.forward(s, dx, extra)
	s.release()
	vec.Sub(refTwice.v, refOnce.v)
	vec.Sub(refTwice.v, extra)
	if d := maxAbs(refTwice.v); d > 1e-9*maxAbs(extra) || math.IsNaN(d) {
		t.Fatalf("the parent's re-share should add DWT(x1 - x0) to V once more; off by %g", d)
	}
}
