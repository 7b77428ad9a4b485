// Package topology builds the communication graphs used by decentralized
// learning: random d-regular graphs (the paper's setting), rings, and fully
// connected graphs, together with Metropolis-Hastings mixing weights and
// support for dynamic (re-randomized per round or epoch) topologies.
package topology

import (
	"fmt"
	"slices"

	"repro/internal/vec"
)

// Graph is an undirected simple graph over nodes 0..N-1 stored as sorted
// adjacency lists. No row is ever written after it is returned. The
// constructors never touch a Graph again; an EpochProvider's live view
// replaces the rows a liveness flip reaches in its cached Graph, and resets
// the lazily built adjacency bitmap when it does.
type Graph struct {
	N   int
	Adj [][]int

	// bitmap is the N×N adjacency matrix, built lazily on the first HasEdge
	// query (it sits on the async engine's arrival/epoch path, where the old
	// O(degree) scan was measurable at 1024 nodes). nil until then; graphs
	// past maxBitmapNodes answer from a binary search instead.
	bitmap []uint64
}

// maxBitmapNodes caps the lazily-built adjacency bitmap at 4096 nodes
// (4096² bits = 2 MiB); larger graphs fall back to binary search over the
// sorted adjacency lists.
const maxBitmapNodes = 4096

// Neighbors returns the adjacency list of node i. Callers must not modify it.
func (g *Graph) Neighbors(i int) []int { return g.Adj[i] }

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int { return len(g.Adj[i]) }

// HasEdge reports whether the undirected edge {i, j} exists. The first query
// on a bitmap-sized graph materializes the adjacency bitmap; later queries
// are one mask test. Lazy construction is safe because graphs are only
// queried from the single-threaded scheduler loop (Graph is not safe for
// concurrent first use, like the rest of the provider caching).
func (g *Graph) HasEdge(i, j int) bool {
	if g.bitmap == nil {
		if g.N > maxBitmapNodes {
			return g.hasEdgeSearch(i, j)
		}
		g.buildBitmap()
	}
	bit := uint(i*g.N + j)
	return g.bitmap[bit>>6]&(1<<(bit&63)) != 0
}

// hasEdgeSearch answers by binary search over the sorted adjacency list.
func (g *Graph) hasEdgeSearch(i, j int) bool {
	adj := g.Adj[i]
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == j
}

func (g *Graph) buildBitmap() {
	g.bitmap = make([]uint64, (g.N*g.N+63)/64)
	for i, adj := range g.Adj {
		row := i * g.N
		for _, j := range adj {
			bit := uint(row + j)
			g.bitmap[bit>>6] |= 1 << (bit & 63)
		}
	}
}

// Connected reports whether the graph is connected (true for N <= 1).
func (g *Graph) Connected() bool {
	if g.N <= 1 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N
}

// Ring returns the cycle graph over n nodes (n >= 3), or the single edge for
// n == 2, or an isolated vertex for n == 1.
func Ring(n int) *Graph {
	g := &Graph{N: n, Adj: make([][]int, n)}
	switch {
	case n <= 1:
	case n == 2:
		g.Adj[0] = []int{1}
		g.Adj[1] = []int{0}
	default:
		for i := 0; i < n; i++ {
			prev := (i - 1 + n) % n
			next := (i + 1) % n
			if prev < next {
				g.Adj[i] = []int{prev, next}
			} else {
				g.Adj[i] = []int{next, prev}
			}
		}
	}
	return g
}

// Regular returns a connected random d-regular simple graph over n nodes.
// It starts from a circulant base graph (guaranteed d-regular and connected)
// and applies random degree-preserving double-edge swaps, rejecting swaps
// that would create self-loops, parallel edges, or disconnect the graph.
// n*d must be even, d < n, and d >= 2 for n > 2.
func Regular(n, d int, rng *vec.RNG) (*Graph, error) {
	if d >= n {
		return nil, fmt.Errorf("topology: degree %d must be < n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("topology: n*d must be even (n=%d, d=%d)", n, d)
	}
	if d < 2 && n > 2 {
		return nil, fmt.Errorf("topology: degree %d cannot form a connected graph over %d nodes", d, n)
	}
	// Edge membership lives in the adjacency rows themselves (d entries each,
	// unsorted while swapping, carved from one array): a scan of two short
	// rows answers what a hashed edge set would, at any n.
	flat := make([]int, n*d)
	g := &Graph{N: n, Adj: make([][]int, n)}
	for i := range g.Adj {
		g.Adj[i] = flat[i*d : i*d : (i+1)*d]
	}
	edges := circulantEdges(n, d)
	kept := edges[:0]
	for _, e := range edges {
		if !slices.Contains(g.Adj[e[0]], e[1]) {
			g.Adj[e[0]] = append(g.Adj[e[0]], e[1])
			g.Adj[e[1]] = append(g.Adj[e[1]], e[0])
			kept = append(kept, e)
		}
	}
	edges = kept
	// Randomize with double-edge swaps: pick edges (a,b), (c,e); rewire to
	// (a,c), (b,e) when the result stays simple. ~10 swaps per edge mixes well.
	attempts := 10 * len(edges)
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
		// New edges: (a,c) and (b,e).
		if a == c || b == e {
			continue
		}
		n1, n2 := normEdge(a, c), normEdge(b, e)
		if slices.Contains(g.Adj[a], c) || slices.Contains(g.Adj[b], e) || n1 == n2 {
			continue
		}
		// An accepted swap has four distinct endpoints: a == e or b == c would
		// have made one of the new edges an existing one.
		g.Adj[a][slices.Index(g.Adj[a], b)] = c
		g.Adj[b][slices.Index(g.Adj[b], a)] = e
		g.Adj[c][slices.Index(g.Adj[c], e)] = a
		g.Adj[e][slices.Index(g.Adj[e], c)] = b
		edges[i], edges[j] = n1, n2
	}
	for i := range g.Adj {
		sortInts(g.Adj[i])
	}
	if !g.Connected() {
		// Extremely unlikely starting from a connected circulant with simple
		// swap acceptance, but regenerate deterministically if it happens.
		return Regular(n, d, rng)
	}
	for i := 0; i < n; i++ {
		if g.Degree(i) != d {
			return nil, fmt.Errorf("topology: internal error: node %d degree %d != %d", i, g.Degree(i), d)
		}
	}
	return g, nil
}

// circulantEdges lists the edges of the circulant graph C_n(1..d/2) plus the
// antipodal matching when d is odd (n must then be even), each normalized;
// Regular drops the repeats as it inserts them.
func circulantEdges(n, d int) [][2]int {
	var edges [][2]int
	for k := 1; k <= d/2; k++ {
		for i := 0; i < n; i++ {
			j := (i + k) % n
			e := normEdge(i, j)
			if k == n-k && i > j {
				continue // avoid double-adding antipodal offset when 2k == n
			}
			edges = append(edges, e)
		}
	}
	if d%2 == 1 {
		for i := 0; i < n/2; i++ {
			edges = append(edges, normEdge(i, i+n/2))
		}
	}
	return edges
}

func normEdge(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// MetropolisHastings returns the mixing weight rows for g: for edge {i,j},
// w_ij = 1/(1+max(deg_i, deg_j)); the self weight w_ii absorbs the remainder
// so each row sums to 1. Rows are returned as neighbor-indexed maps plus the
// self weight. This is the doubly stochastic scheme of Xiao & Boyd used by
// the paper's D-PSGD.
func MetropolisHastings(g *Graph) []Weights {
	out := make([]Weights, g.N)
	for i := range out {
		out[i] = mhRow(g, i)
	}
	return out
}

// mhRow builds node i's Metropolis-Hastings row — the one definition behind
// MetropolisHastings and the live-view patch.
func mhRow(g *Graph, i int) Weights {
	w := Weights{Neighbor: make(map[int]float64, g.Degree(i))}
	var sum float64
	for _, j := range g.Adj[i] {
		wij := 1.0 / (1.0 + float64(maxInt(g.Degree(i), g.Degree(j))))
		w.Neighbor[j] = wij
		sum += wij
	}
	w.Self = 1 - sum
	return w
}

// Weights is one node's mixing row: its self weight and one weight per
// neighbor. For a connected graph, Self + sum(Neighbor) == 1.
type Weights struct {
	Self     float64
	Neighbor map[int]float64
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Provider yields the topology for each round. Static topologies return the
// same graph every round; dynamic topologies (paper Figure 7) re-randomize.
type Provider interface {
	// Round returns the graph and per-node mixing weights for round t.
	Round(t int) (*Graph, []Weights)
}

// Static wraps a fixed graph as a Provider.
type Static struct {
	G *Graph
	W []Weights
}

// NewStatic builds a static provider with Metropolis-Hastings weights.
func NewStatic(g *Graph) *Static {
	return &Static{G: g, W: MetropolisHastings(g)}
}

// Round implements Provider.
func (s *Static) Round(int) (*Graph, []Weights) { return s.G, s.W }

// Induced returns the subgraph of g induced by the live set: node ids are
// preserved, but every edge with a dead endpoint is removed, so dead nodes
// become isolated vertices. The async engine uses this to shrink and grow the
// active communication graph as nodes leave and rejoin mid-run.
func Induced(g *Graph, live []bool) *Graph {
	out := &Graph{N: g.N, Adj: make([][]int, g.N)}
	for i := range out.Adj {
		out.Adj[i] = inducedRow(g, live, i)
	}
	return out
}

// inducedRow builds node i's row of Induced(g, live): nil for a dead node,
// its live neighbors (possibly none) otherwise. Like mhRow it is the one
// definition behind the full build and the live-view patch.
func inducedRow(g *Graph, live []bool, i int) []int {
	if i < len(live) && !live[i] {
		return nil
	}
	adj := make([]int, 0, len(g.Adj[i]))
	for _, j := range g.Adj[i] {
		if j >= len(live) || live[j] {
			adj = append(adj, j)
		}
	}
	return adj
}

// liveView is EpochProvider's live-filtering state: the liveness flags, the
// live-induced subgraph and Metropolis-Hastings weights of the base graph
// last asked for, and the nodes that flipped since that pair was built. A
// flip does not discard the pair: the next query of the same base graph
// patches the flip's neighborhood into it in place (see patch), so a churn
// event costs its neighborhood, not the fleet. A patch replaces row headers
// in the cached Graph and weight slice but never writes a row, so a caller
// holding a row (a pool worker's Weights, a neighbor list being walked) keeps
// what it was given; a caller holding the Graph or slice across a flip and
// the next query sees the patched rows. Another base graph's query builds a
// new pair and leaves the old one alone.
type liveView struct {
	live []bool
	// liveVersion counts effective liveness changes; the cached pair is
	// current while cachedVer matches it, so a SetLive racing a round/epoch
	// query in either order is always seen.
	liveVersion int
	flipped     []int

	key, cachedVer int // base-graph index (round or epoch) and version of g, w
	base, g        *Graph
	w              []Weights
	deg            []int // g's degrees, for the patch to compare its new ones with
}

func newLiveView(n int) liveView {
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	return liveView{live: live, key: -1}
}

// SetLive flips one node's liveness; the next query patches the node's
// neighborhood into the cached subgraph.
func (v *liveView) SetLive(node int, alive bool) {
	if v.live[node] == alive {
		return
	}
	v.live[node] = alive
	v.liveVersion++
	v.flipped = append(v.flipped, node)
}

// Live reports whether node is currently live.
func (v *liveView) Live(node int) bool { return v.live[node] }

// NumLive counts the live nodes.
func (v *liveView) NumLive() int {
	n := 0
	for _, a := range v.live {
		if a {
			n++
		}
	}
	return n
}

// ResetLive marks every node live again (the start-of-run state).
func (v *liveView) ResetLive() {
	for i, a := range v.live {
		if !a {
			v.SetLive(i, true)
		}
	}
}

// view returns the live-induced pair of base graph key, patched for the
// flips since it was built; ok is false when another base graph is cached
// and the caller must fetch key's and rebuild.
func (v *liveView) view(key int) (g *Graph, w []Weights, ok bool) {
	if key != v.key || v.g == nil {
		return nil, nil, false
	}
	if v.cachedVer != v.liveVersion {
		if 8*len(v.flipped) > v.g.N {
			// Past a fraction of the fleet (ResetLive after heavy churn) the
			// patch would touch most rows anyway.
			v.rebuild(key, v.base)
		} else {
			v.patch()
		}
	}
	return v.g, v.w, true
}

// rebuild induces and weights base from scratch and caches the pair as key's.
func (v *liveView) rebuild(key int, base *Graph) (*Graph, []Weights) {
	v.base, v.g = base, Induced(base, v.live)
	v.w = MetropolisHastings(v.g)
	v.key, v.cachedVer, v.flipped = key, v.liveVersion, v.flipped[:0]
	v.deg = v.deg[:0]
	for _, adj := range v.g.Adj {
		v.deg = append(v.deg, len(adj))
	}
	return v.g, v.w
}

// patch rewrites the rows of the cached pair a flip can reach, in place:
// adjacency for the flipped nodes and their base-graph neighbors, weights for
// those and, one hop further, wherever a changed degree changes some
// max(deg_i, deg_j) — through the inducedRow and mhRow that build every row
// of a fresh pair. Every other row is left as it is. Overlapping
// neighborhoods may build a row twice; it is the same row.
func (v *liveView) patch() {
	g, w := v.g, v.w
	rows := v.flipped
	for _, f := range v.flipped {
		rows = append(rows, v.base.Adj[f]...)
	}
	for _, i := range rows {
		g.Adj[i] = inducedRow(v.base, v.live, i)
	}
	g.bitmap = nil
	for _, i := range rows {
		w[i] = mhRow(g, i)
		for _, j := range g.Adj[i] {
			if mhRowMoved(v.deg, g, j) {
				w[j] = mhRow(g, j)
			}
		}
	}
	for _, i := range rows {
		v.deg[i] = g.Degree(i)
	}
	v.cachedVer, v.flipped = v.liveVersion, rows[:0]
}

// mhRowMoved reports whether node i's weights differ between the degrees
// oldDeg and g's, for a node whose own adjacency does not.
func mhRowMoved(oldDeg []int, g *Graph, i int) bool {
	di := g.Degree(i)
	for _, j := range g.Adj[i] {
		if maxInt(di, oldDeg[j]) != maxInt(di, g.Degree(j)) {
			return true
		}
	}
	return false
}
