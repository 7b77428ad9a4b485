package core

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/sparsify"
)

// bandNode builds a 16-dim, 2-level haar JWINS node whose coefficient layout
// is exactly [cA2: 0-3 | cD2: 4-7 | cD1: 8-15], a zeroed score vector the
// tests write into directly, and a working set taken the way Share takes one
// (released when the test ends).
func bandNode(t *testing.T, disableWavelet bool) (*JWINSNode, *scratch, []float64) {
	t.Helper()
	cfg := DefaultJWINSConfig()
	cfg.Wavelet = "haar"
	cfg.Levels = 2
	cfg.BandAdaptive = true
	cfg.DisableWavelet = disableWavelet
	cfg.FloatCodec = codec.Raw32{}
	nodes := jwinsFleet(t, 1, 16, cfg)
	n := nodes[0]
	if n.coeffDim != 16 {
		t.Fatalf("coeffDim %d, want 16", n.coeffDim)
	}
	s := acquireScratch()
	t.Cleanup(s.release)
	return n, s, make([]float64, n.coeffDim)
}

func assertSelection(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("selected %v, want %v", got, want)
		}
		if i > 0 && got[i] <= got[i-1] {
			t.Fatalf("selection %v not strictly ascending", got)
		}
	}
}

// TestBandAdaptiveZeroMassBands: bands with zero accumulated mass receive no
// budget; the whole budget lands in the single live band.
func TestBandAdaptiveZeroMassBands(t *testing.T) {
	n, s, scores := bandNode(t, false)
	scores[0] = 5
	scores[1] = 3
	assertSelection(t, n.bandAdaptiveTopK(s, scores, 2), []int{0, 1})
}

// TestBandAdaptiveZeroTotalMass: all-zero scores fall back to the
// global ranking, whose zero ties break toward the lowest indices.
func TestBandAdaptiveZeroTotalMass(t *testing.T) {
	n, s, scores := bandNode(t, false)
	assertSelection(t, n.bandAdaptiveTopK(s, scores, 3), []int{0, 1, 2})
}

// TestBandAdaptiveTinyMassGetsOne: a band whose proportional budget rounds
// to zero still contributes its single largest coefficient when its mass is
// non-zero, and the k cap truncates in band order.
func TestBandAdaptiveTinyMassGetsOne(t *testing.T) {
	n, s, scores := bandNode(t, false)
	scores[0] = 0.001 // cA2: rounds to zero budget, bumped to one
	for i := 8; i < 16; i++ {
		scores[i] = 1 // cD1 holds effectively all the mass
	}
	assertSelection(t, n.bandAdaptiveTopK(s, scores, 2), []int{0, 8})
}

// TestBandAdaptiveFullBudget: k = coeffDim selects everything.
func TestBandAdaptiveFullBudget(t *testing.T) {
	n, s, scores := bandNode(t, false)
	for i := range scores {
		scores[i] = 1
	}
	want := make([]int, 16)
	for i := range want {
		want[i] = i
	}
	assertSelection(t, n.bandAdaptiveTopK(s, scores, 16), want)
}

// TestBandAdaptiveSingleBandFallback: without a wavelet the transform has a
// single (identity) band and no band table, so selection degrades to the
// plain global TopK.
func TestBandAdaptiveSingleBandFallback(t *testing.T) {
	n, s, scores := bandNode(t, true)
	scores[3] = 2
	scores[11] = 5
	scores[12] = 1
	got := n.bandAdaptiveTopK(s, scores, 2)
	assertSelection(t, got, []int{3, 11})
	want := sparsify.TopKIndices(scores, 2)
	assertSelection(t, got, want)
}

// TestBandAdaptiveRemainderFill: when band budgets cannot absorb k (one live
// band shorter than k), the remainder comes from the global ranking in rank
// order — here the zero ties fill lowest-index-first — and the result stays
// ascending.
func TestBandAdaptiveRemainderFill(t *testing.T) {
	n, s, scores := bandNode(t, false)
	for i := 4; i < 8; i++ {
		scores[i] = 1 // cD2 is the only live band, 4 slots, k = 6
	}
	assertSelection(t, n.bandAdaptiveTopK(s, scores, 6), []int{0, 1, 4, 5, 6, 7})
}
