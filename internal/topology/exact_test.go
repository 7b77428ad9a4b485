package topology

// exact_test.go holds the live-view patch, the flattened MixingSLEM and the
// map-free Regular to what they replaced: a pair induced and weighted from
// scratch, the per-edge map-lookup power iteration, and the hashed edge set.
// The replaced code lives here as the oracles.

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/vec"
)

// regularRef is Regular as it was: edge membership in a map[[2]int]bool.
func regularRef(n, d int, rng *vec.RNG) *Graph {
	dedupe := func(edges [][2]int) [][2]int {
		seen := make(map[[2]int]bool, len(edges))
		out := edges[:0]
		for _, e := range edges {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
		return out
	}
	edges := dedupe(circulantEdges(n, d))
	attempts := 10 * len(edges)
	edgeSet := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		edgeSet[e] = true
	}
	for t := 0; t < attempts; t++ {
		i := rng.Intn(len(edges))
		j := rng.Intn(len(edges))
		if i == j {
			continue
		}
		a, b := edges[i][0], edges[i][1]
		c, e := edges[j][0], edges[j][1]
		if rng.Intn(2) == 1 {
			c, e = e, c
		}
		if a == c || b == e {
			continue
		}
		n1, n2 := normEdge(a, c), normEdge(b, e)
		if edgeSet[n1] || edgeSet[n2] || n1 == n2 {
			continue
		}
		delete(edgeSet, edges[i])
		delete(edgeSet, edges[j])
		edgeSet[n1] = true
		edgeSet[n2] = true
		edges[i], edges[j] = n1, n2
	}
	g := &Graph{N: n, Adj: make([][]int, n)}
	for _, e := range edges {
		g.Adj[e[0]] = append(g.Adj[e[0]], e[1])
		g.Adj[e[1]] = append(g.Adj[e[1]], e[0])
	}
	for i := range g.Adj {
		sortInts(g.Adj[i])
	}
	if !g.Connected() {
		return regularRef(n, d, rng)
	}
	return g
}

// mixingSLEMRef is MixingSLEM as it was: one w[i].Neighbor[j] map lookup per
// edge per iteration.
func mixingSLEMRef(g *Graph, w []Weights, live []bool) float64 {
	var idx []int
	for i := 0; i < g.N; i++ {
		if live == nil || (i < len(live) && live[i]) {
			idx = append(idx, i)
		}
	}
	m := len(idx)
	if m <= 1 {
		return 0
	}
	pos := make([]int, g.N)
	for k, i := range idx {
		pos[i] = k
	}
	x, y := make([]float64, m), make([]float64, m)
	rng := vec.NewRNG(0x6d6978)
	for k := range x {
		x[k] = rng.Float64() - 0.5
	}
	deflate := func(v []float64) {
		var sum float64
		for _, e := range v {
			sum += e
		}
		mean := sum / float64(m)
		for k := range v {
			v[k] -= mean
		}
	}
	norm := func(v []float64) float64 {
		var s float64
		for _, e := range v {
			s += e * e
		}
		return math.Sqrt(s)
	}
	deflate(x)
	if n := norm(x); n > 0 {
		for k := range x {
			x[k] /= n
		}
	}
	est := 0.0
	for iter := 0; iter < 400; iter++ {
		for k, i := range idx {
			v := w[i].Self * x[k]
			for _, j := range g.Adj[i] {
				if live == nil || (j < len(live) && live[j]) {
					v += w[i].Neighbor[j] * x[pos[j]]
				}
			}
			y[k] = v
		}
		deflate(y)
		n := norm(y)
		if n == 0 {
			return 0
		}
		for k := range y {
			y[k] /= n
		}
		x, y = y, x
		if iter >= 50 && math.Abs(n-est) <= 1e-12 {
			return clampSLEM(n)
		}
		est = n
	}
	return clampSLEM(est)
}

// regularCases covers odd and even degrees, the n·d limits (d = n-1, d = 2,
// the two-node graph) and sizes past the old bitmap-friendly range.
func regularCases() [][2]int {
	cases := [][2]int{{2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}, {8, 7}, {9, 8}, {10, 3}, {12, 5}, {96, 4}, {257, 6}, {1024, 6}}
	rng := vec.NewRNG(0x726567)
	for len(cases) < 220 {
		n := 4 + rng.Intn(120)
		d := 2 + rng.Intn(n-2)
		if n*d%2 == 0 {
			cases = append(cases, [2]int{n, d})
		}
	}
	return cases
}

// TestRegularMatchesMapReference: scanning the two endpoints' rows must
// accept and reject exactly the swaps the hashed edge set did — same RNG
// draws, so the same graph, and the generator left in the same state.
func TestRegularMatchesMapReference(t *testing.T) {
	for k, c := range regularCases() {
		n, d := c[0], c[1]
		seed := uint64(1000 + k)
		rngGot, rngWant := vec.NewRNG(seed), vec.NewRNG(seed)
		got, err := Regular(n, d, rngGot)
		if err != nil {
			t.Fatalf("Regular(%d, %d): %v", n, d, err)
		}
		want := regularRef(n, d, rngWant)
		if !reflect.DeepEqual(got.Adj, want.Adj) {
			t.Fatalf("Regular(%d, %d) seed %d differs from the map-based reference", n, d, seed)
		}
		if rngGot.Uint64() != rngWant.Uint64() {
			t.Fatalf("Regular(%d, %d) seed %d consumed different RNG draws", n, d, seed)
		}
	}
}

// TestMixingSLEMMatchesReference: the flattened iteration multiplies the
// same terms in the same order, so the estimate is the reference's float —
// on full graphs, partially live masks, graphs already induced, and a live
// set split into two components (gap 0).
func TestMixingSLEMMatchesReference(t *testing.T) {
	var s SLEMScratch
	rng := vec.NewRNG(0x736c656d)
	cases := 0
	check := func(name string, g *Graph, w []Weights, live []bool) {
		t.Helper()
		cases++
		want := mixingSLEMRef(g, w, live)
		if got := s.MixingSLEM(g, w, live); got != want {
			t.Fatalf("%s: SLEM %v, reference %v", name, got, want)
		}
	}
	for k, c := range regularCases() {
		n, d := c[0], c[1]
		if n > 300 || (k >= 12 && k%3 != 0) {
			continue // the reference costs a map lookup per edge per iteration
		}
		g, err := Regular(n, d, vec.NewRNG(uint64(2000+k)))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("regular(%d,%d)", n, d)
		check(name, g, MetropolisHastings(g), nil)
		live := make([]bool, n)
		for i := range live {
			live[i] = rng.Float64() < 0.8
		}
		// The engine's call: the pair of the induced graph, restricted to live.
		ind := Induced(g, live)
		check(name+"/induced", ind, MetropolisHastings(ind), live)
		// A mask over the full graph's weights (rows no longer sum to one).
		check(name+"/masked", g, MetropolisHastings(g), live)
	}
	// Two rings with no edge between them: disconnected live set.
	split := &Graph{N: 12, Adj: make([][]int, 12)}
	for i := 0; i < 12; i++ {
		base := i / 6 * 6
		split.Adj[i] = []int{base + (i-base+5)%6, base + (i-base+1)%6}
		sortInts(split.Adj[i])
	}
	check("split", split, MetropolisHastings(split), nil)
	if gap := 1 - s.MixingSLEM(split, MetropolisHastings(split), nil); gap > 1e-9 {
		t.Fatalf("disconnected live set has gap %v, want 0", gap)
	}
	if cases < 200 {
		t.Fatalf("only %d cases", cases)
	}
}

// scratchPair is what a live view must serve: base induced by live and
// weighted, both from scratch.
func scratchPair(base *Graph, live []bool) (*Graph, []Weights) {
	g := Induced(base, live)
	return g, MetropolisHastings(g)
}

// TestLiveViewPatchMatchesScratch drives EpochProviders, rotating over
// SeededDynamic or pinned to a static graph, through random SetLive,
// ResetLive, epoch changes and repeated queries. Whatever the view served — a patched pair, a rebuilt one, or the cached one — must be
// DeepEqual to the pair built from scratch (nil rows of dead nodes and empty
// rows of isolated live ones are different things), and HasEdge must agree
// with it on every pair of nodes.
func TestLiveViewPatchMatchesScratch(t *testing.T) {
	rng := vec.NewRNG(0x6c697665)
	for trial := 0; trial < 12; trial++ {
		n := 64 << uint(trial%4) // 64, 128, 256, 512
		d := 4 + 2*(trial%2)
		seed := uint64(300 + trial)
		var (
			p      *EpochProvider
			baseOf func(key int) *Graph
		)
		if trial%3 == 2 {
			g, err := Regular(n, d, vec.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			p, baseOf = NewEpochProvider(NewStatic(g), n, 0), func(int) *Graph { return g }
		} else {
			sd := NewSeededDynamic(n, d, seed)
			p, baseOf = NewEpochProvider(sd, n, 1), NewSeededDynamic(n, d, seed).Graph
		}
		live := make([]bool, n)
		for i := range live {
			live[i] = true
		}
		key := 0
		for step := 0; step < 120; step++ {
			switch r := rng.Intn(20); {
			case r < 12: // the engine's pattern: one flip, then a query
				i := rng.Intn(n)
				live[i] = !live[i]
				p.SetLive(i, live[i])
			case r < 15: // a burst of flips between two queries, repeats included
				for k := rng.Intn(n / 4); k >= 0; k-- {
					i := rng.Intn(n)
					live[i] = rng.Intn(3) > 0
					p.SetLive(i, live[i])
				}
			case r < 17:
				key++
			case r < 18:
				p.ResetLive()
				for i := range live {
					live[i] = true
				}
			default: // query again with nothing changed
			}
			g, w := p.Round(key)
			wantG, wantW := scratchPair(baseOf(key), live)
			if g.N != wantG.N || !reflect.DeepEqual(g.Adj, wantG.Adj) {
				t.Fatalf("trial %d step %d: served graph differs from Induced", trial, step)
			}
			if !reflect.DeepEqual(w, wantW) {
				t.Fatalf("trial %d step %d: served weights differ from MetropolisHastings", trial, step)
			}
			if step%10 == 0 {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if g.HasEdge(i, j) != wantG.HasEdge(i, j) {
							t.Fatalf("trial %d step %d: HasEdge(%d,%d) disagrees", trial, step, i, j)
						}
					}
				}
			}
			if p.NumLive() != numTrue(live) {
				t.Fatalf("trial %d step %d: NumLive %d, want %d", trial, step, p.NumLive(), numTrue(live))
			}
		}
	}
}

func numTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// TestLiveViewPatchSharesRows: a patch rewrites only what a flip can reach,
// in the cached pair itself. Every row outside the flipped node's two-hop
// neighborhood must be the previous row itself, not a copy, and no row served
// before the flip may have been written (pool workers and neighbor walks may
// still hold them): the patch replaces row headers, never row contents.
func TestLiveViewPatchSharesRows(t *testing.T) {
	const n = 512
	p := NewEpochProvider(NewSeededDynamic(n, 6, 7), n, 1)
	g0, w0 := p.Round(0)
	adj0 := append([][]int(nil), g0.Adj...)
	wt0 := append([]Weights(nil), w0...)
	deep := func(adj [][]int, w []Weights) ([][]int, []map[int]float64) {
		rows, nbrs := make([][]int, len(adj)), make([]map[int]float64, len(w))
		for i := range adj {
			rows[i] = append([]int(nil), adj[i]...)
			nbrs[i] = maps.Clone(w[i].Neighbor)
		}
		return rows, nbrs
	}
	rows0, nbrs0 := deep(adj0, wt0)
	p.SetLive(100, false)
	g1, w1 := p.Round(0)
	if g1 != g0 {
		t.Fatal("patch built a new graph object instead of patching the cached one")
	}
	if g1.Adj[100] != nil {
		t.Fatal("the departed node's row was not emptied")
	}
	near := map[int]bool{100: true}
	for _, j := range adj0[100] {
		near[j] = true
		for _, k := range adj0[j] {
			near[k] = true
		}
	}
	shared := 0
	for i := 0; i < n; i++ {
		if near[i] {
			continue
		}
		if len(adj0[i]) > 0 && &g1.Adj[i][0] != &adj0[i][0] {
			t.Fatalf("adjacency row %d outside the flip's reach was rebuilt", i)
		}
		if reflect.ValueOf(w1[i].Neighbor).Pointer() != reflect.ValueOf(wt0[i].Neighbor).Pointer() {
			t.Fatalf("weight row %d outside the flip's reach was rebuilt", i)
		}
		shared++
	}
	if shared < n-50 {
		t.Fatalf("only %d of %d rows shared", shared, n)
	}
	rows1, nbrs1 := deep(adj0, wt0)
	if !reflect.DeepEqual(rows1, rows0) || !reflect.DeepEqual(nbrs1, nbrs0) || len(adj0[100]) != 6 {
		t.Fatal("patch wrote to a row it had served")
	}
}

// liveChurnAllocCeiling is the allocation budget of one flip + Round at 2048
// nodes and degree 6: up to seven adjacency rows and two per rebuilt weight
// row — the seven whose adjacency changed plus any neighbor whose
// max(deg_i, deg_j) moved. About 20 on a regular graph, against ~6,100 for a
// rebuild. liveChurnByteCeiling bounds the same flip's bytes: the rows only,
// about 1.6 KB. Before the patch wrote into the cached pair it also copied
// every row header of the graph and the weights, 80 KB a flip at this size.
const (
	liveChurnAllocCeiling = 32
	liveChurnByteCeiling  = 4 << 10
)

func TestLiveGraphChurnAllocations(t *testing.T) {
	const n, runs = 2048, 200
	p := NewEpochProvider(NewSeededDynamic(n, 6, 3), n, 1)
	p.Round(0)
	node, alive := 0, false
	flip := func() {
		p.SetLive(node, alive)
		p.Round(0)
		if alive {
			node = (node + 37) % n
		}
		alive = !alive
	}
	avg := testing.AllocsPerRun(runs, flip)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		flip()
	}
	runtime.ReadMemStats(&after)
	perFlip := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("one flip + Round at %d nodes: %.1f allocations, %.0f bytes", n, avg, perFlip)
	if avg > liveChurnAllocCeiling {
		t.Fatalf("one flip + Round allocates %.1f times at %d nodes, ceiling %d", avg, n, liveChurnAllocCeiling)
	}
	if perFlip > liveChurnByteCeiling {
		t.Fatalf("one flip + Round allocates %.0f bytes at %d nodes, ceiling %d", perFlip, n, liveChurnByteCeiling)
	}
}

// BenchmarkLiveGraphChurn times what one leave or join costs the topology
// layer at 2048 nodes: ref rebuilds the pair from scratch (what every flip
// used to do), new is the live view's patch. Same process, same base graph.
func BenchmarkLiveGraphChurn(b *testing.B) {
	const n = 2048
	sd := NewSeededDynamic(n, 6, 3)
	base := sd.Graph(0)
	b.Run("ref", func(b *testing.B) {
		live := make([]bool, n)
		for i := range live {
			live[i] = true
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			node := (i / 2 * 37) % n
			live[node] = i%2 == 1
			sinkG, sinkW = scratchPair(base, live)
		}
	})
	b.Run("new", func(b *testing.B) {
		p := NewEpochProvider(sd, n, 1)
		p.Round(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.SetLive((i/2*37)%n, i%2 == 1)
			sinkG, sinkW = p.Round(0)
		}
	})
}

var (
	sinkG   *Graph
	sinkW   []Weights
	sinkGap float64
)

// BenchmarkMixingSLEM2048 times one sampled epoch's spectral gap at the
// scale-async fleet size, ref (map lookup per edge) against new (flattened).
func BenchmarkMixingSLEM2048(b *testing.B) {
	g := NewSeededDynamic(2048, 6, 3).Graph(1)
	w := MetropolisHastings(g)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkGap = mixingSLEMRef(g, w, nil)
		}
	})
	b.Run("new", func(b *testing.B) {
		var s SLEMScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkGap = s.MixingSLEM(g, w, nil)
		}
	})
}
