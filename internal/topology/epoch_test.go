package topology

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vec"
)

// TestSeededDynamicRandomAccess: round t's graph must depend only on
// (seed, t) — repeated and out-of-order queries return identical graphs,
// unlike Dynamic's history-dependent stream.
func TestSeededDynamicRandomAccess(t *testing.T) {
	a := NewSeededDynamic(24, 4, 7)
	g5a, _ := a.Round(5)
	g2, _ := a.Round(2)
	g5b, _ := a.Round(5) // revisit after moving away
	if !sameAdj(g5a, g5b) {
		t.Fatal("revisiting an epoch returned a different graph")
	}
	if sameAdj(g5a, g2) {
		t.Fatal("distinct epochs returned identical graphs (seed mixing broken)")
	}

	b := NewSeededDynamic(24, 4, 7)
	g5c, _ := b.Round(5) // fresh provider, direct query
	if !sameAdj(g5a, g5c) {
		t.Fatal("graph depends on query history, not just (seed, round)")
	}
	other := NewSeededDynamic(24, 4, 8)
	g5d, _ := other.Round(5)
	if sameAdj(g5a, g5d) {
		t.Fatal("different seeds returned identical graphs")
	}
	for i := 0; i < 24; i++ {
		if g5a.Degree(i) != 4 {
			t.Fatalf("node %d degree %d != 4", i, g5a.Degree(i))
		}
	}
	if !g5a.Connected() {
		t.Fatal("generated graph not connected")
	}
}

// TestSeededDynamicConcurrentGraph: goroutines querying overlapping rounds of
// one provider, as the async engine's prefetch and event loop do, each get
// exactly the graph a fresh provider draws for that round.
func TestSeededDynamicConcurrentGraph(t *testing.T) {
	const rounds, workers = 8, 4
	want := make([]*Graph, rounds)
	for r := range want {
		want[r] = NewSeededDynamic(48, 4, 13).Graph(r)
	}
	shared := NewSeededDynamic(48, 4, 13)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			// Each worker sweeps every round twice from its own offset, so
			// rounds are drawn, cached, evicted and drawn again under contention.
			for k := 0; k < 2*rounds; k++ {
				r := (w + k) % rounds
				if g := shared.Graph(r); !sameAdj(g, want[r]) {
					errs <- fmt.Errorf("worker %d: round %d differs from a fresh provider's", w, r)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func sameAdj(a, b *Graph) bool {
	if a.N != b.N {
		return false
	}
	for i := 0; i < a.N; i++ {
		if len(a.Adj[i]) != len(b.Adj[i]) {
			return false
		}
		for k := range a.Adj[i] {
			if a.Adj[i][k] != b.Adj[i][k] {
				return false
			}
		}
	}
	return true
}

// TestEpochProviderRotatesAndFilters: epochs rotate the base graph, dead
// nodes are isolated, and weights are recomputed on the induced subgraph.
func TestEpochProviderRotatesAndFilters(t *testing.T) {
	p := NewEpochProvider(NewSeededDynamic(16, 4, 3), 16, 2.5)
	g0, w0 := p.Round(0)
	g1, _ := p.Round(1)
	if sameAdj(g0, g1) {
		t.Fatal("epochs 0 and 1 returned identical graphs")
	}
	if w0[3].Self <= 0 {
		t.Fatalf("implausible self weight %v", w0[3].Self)
	}

	p.SetLive(3, false)
	g1b, w1b := p.Round(1)
	if len(g1b.Adj[3]) != 0 {
		t.Fatal("dead node kept edges")
	}
	if w1b[3].Self != 1 || len(w1b[3].Neighbor) != 0 {
		t.Fatalf("dead node row not isolated: %+v", w1b[3])
	}
	for _, j := range g1.Adj[3] {
		if g1b.HasEdge(j, 3) {
			t.Fatalf("live node %d still linked to dead node 3", j)
		}
	}

	if p.NumLive() != 15 || p.Live(3) {
		t.Fatal("liveness bookkeeping wrong")
	}
	p.ResetLive()
	if p.NumLive() != 16 {
		t.Fatal("ResetLive did not restore the full set")
	}
	g1c, _ := p.Round(1)
	if !sameAdj(g1, g1c) {
		t.Fatal("ResetLive did not restore epoch 1's full graph")
	}
}

// TestEpochProviderCacheInvalidation: the cache is keyed by
// (epoch, liveVersion), so a SetLive racing an epoch boundary — liveness
// flips interleaved with epoch queries in either order — must never serve a
// stale subgraph. This is the async-engine scenario where a churn event and
// a topology rotation land on the same simulated instant.
func TestEpochProviderCacheInvalidation(t *testing.T) {
	p := NewEpochProvider(NewSeededDynamic(16, 4, 9), 16, 1.0)

	// Query epoch 1, then flip liveness, then re-query the same epoch: the
	// cached full graph must be rebuilt.
	full, _ := p.Round(1)
	p.SetLive(5, false)
	masked, _ := p.Round(1)
	if len(masked.Adj[5]) != 0 {
		t.Fatal("SetLive after a same-epoch query served the stale cache")
	}
	if sameAdj(full, masked) && len(full.Adj[5]) > 0 {
		t.Fatal("cache not invalidated by liveVersion")
	}

	// Opposite interleaving: flip liveness first, then cross the epoch
	// boundary; the new epoch's graph must already exclude the dead node.
	p.SetLive(7, false)
	g2, _ := p.Round(2)
	if len(g2.Adj[7]) != 0 || len(g2.Adj[5]) != 0 {
		t.Fatal("epoch advance lost earlier liveness changes")
	}

	// Flip back on the boundary epoch: same epoch index, third liveness
	// version — still fresh.
	p.SetLive(5, true)
	g2b, _ := p.Round(2)
	if len(g2b.Adj[5]) == 0 {
		t.Fatal("rejoined node has no edges in the re-queried epoch")
	}
	// Redundant SetLive must not thrash the cache version.
	v := p.liveVersion
	p.SetLive(5, true)
	if p.liveVersion != v {
		t.Fatal("no-op SetLive bumped the live version")
	}
	gc, _ := p.Round(2)
	if !sameAdj(g2b, gc) {
		t.Fatal("repeated query after no-op SetLive changed the graph")
	}
}

// TestMaskedCacheInvalidationInterleaved mirrors the rotating test for an
// EpochProvider that never rotates (how the async engine runs a static
// graph): SetLive between two same-epoch queries must rebuild.
func TestMaskedCacheInvalidationInterleaved(t *testing.T) {
	g, err := Regular(12, 4, vec.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	m := NewEpochProvider(NewStatic(g), 12, 0)
	full, _ := m.Round(0)
	if len(full.Adj[2]) != 4 {
		t.Fatalf("unexpected base degree %d", len(full.Adj[2]))
	}
	m.SetLive(2, false)
	masked, _ := m.Round(0)
	if len(masked.Adj[2]) != 0 {
		t.Fatal("stale cache served after SetLive")
	}
	m.ResetLive()
	restored, _ := m.Round(0)
	if !sameAdj(full, restored) {
		t.Fatal("ResetLive did not restore the full graph")
	}
}

// TestMixingSLEM: known orderings — the complete graph mixes in one step
// (SLEM 0 under MH within numerical tolerance... in fact MH on K_n gives
// SLEM < ring's), a ring mixes slowly (SLEM near 1), a disconnected live
// set does not mix at all (SLEM 1, gap 0) — and the estimate is a pure
// function of its inputs.
func TestMixingSLEM(t *testing.T) {
	full := Full(16)
	ring := Ring(16)
	sFull := MixingSLEM(full, MetropolisHastings(full), nil)
	sRing := MixingSLEM(ring, MetropolisHastings(ring), nil)
	if !(sFull < sRing) {
		t.Fatalf("complete graph SLEM %v not below ring %v", sFull, sRing)
	}
	if sRing < 0.9 || sRing > 1 {
		t.Fatalf("ring SLEM %v implausible (theory: 1-O(1/n^2))", sRing)
	}
	if sFull < 0 || sFull > 0.5 {
		t.Fatalf("complete graph SLEM %v implausible", sFull)
	}

	// Two live components: no global mixing.
	g := &Graph{N: 4, Adj: [][]int{{1}, {0}, {3}, {2}}}
	if s := MixingSLEM(g, MetropolisHastings(g), nil); math.Abs(s-1) > 1e-6 {
		t.Fatalf("disconnected SLEM %v, want 1", s)
	}
	if gap := SpectralGap(g, MetropolisHastings(g), nil); gap > 1e-6 {
		t.Fatalf("disconnected gap %v, want 0", gap)
	}

	// Restricting to a live path inside the ring must still be connected.
	live := make([]bool, 16)
	for i := 0; i < 8; i++ {
		live[i] = true
	}
	ind := Induced(ring, live)
	s := MixingSLEM(ind, MetropolisHastings(ind), live)
	if s <= 0 || s >= 1 {
		t.Fatalf("live-path SLEM %v outside (0,1)", s)
	}

	// Determinism.
	a := MixingSLEM(ring, MetropolisHastings(ring), nil)
	b := MixingSLEM(ring, MetropolisHastings(ring), nil)
	if a != b {
		t.Fatalf("SLEM not deterministic: %v vs %v", a, b)
	}

	// Degenerate sizes.
	if s := MixingSLEM(Ring(1), MetropolisHastings(Ring(1)), nil); s != 0 {
		t.Fatalf("single node SLEM %v, want 0", s)
	}
}

// TestEdgeTurnover: identical graphs turn over nothing, disjoint edge sets
// everything, and a rotated regular graph lands in between.
func TestEdgeTurnover(t *testing.T) {
	r := Ring(8)
	if got := EdgeTurnover(r, r); got != 0 {
		t.Fatalf("self turnover %v, want 0", got)
	}
	if got := EdgeTurnover(nil, r); got != 1 {
		t.Fatalf("nil-prev turnover %v, want 1", got)
	}
	sd := NewSeededDynamic(24, 4, 11)
	g0, _ := sd.Round(0)
	g1, _ := sd.Round(1)
	tv := EdgeTurnover(g0, g1)
	if tv <= 0 || tv > 1 {
		t.Fatalf("rotated turnover %v outside (0,1]", tv)
	}
	empty := &Graph{N: 4, Adj: make([][]int, 4)}
	if got := EdgeTurnover(r, empty); got != 0 {
		t.Fatalf("empty current graph turnover %v, want 0", got)
	}
}
