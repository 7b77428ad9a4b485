package topology

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

// numEdges returns the number of undirected edges of g.
func numEdges(g *Graph) int {
	total := 0
	for _, a := range g.Adj {
		total += len(a)
	}
	return total / 2
}

func TestRing(t *testing.T) {
	g := Ring(6)
	for i := 0; i < 6; i++ {
		if g.Degree(i) != 2 {
			t.Fatalf("node %d degree %d", i, g.Degree(i))
		}
	}
	if !g.Connected() {
		t.Fatal("ring not connected")
	}
	if !g.HasEdge(0, 5) || !g.HasEdge(0, 1) {
		t.Fatal("ring wrap-around edges missing")
	}
	if numEdges(g) != 6 {
		t.Fatalf("edges = %d", numEdges(g))
	}
	if !Ring(1).Connected() || !Ring(2).Connected() {
		t.Fatal("tiny rings should be connected")
	}
}

// Full returns the complete graph over n nodes, the densest fixture of the
// epoch, HasEdge and graph tests.
func Full(n int) *Graph {
	g := &Graph{N: n, Adj: make([][]int, n)}
	for i := 0; i < n; i++ {
		adj := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				adj = append(adj, j)
			}
		}
		g.Adj[i] = adj
	}
	return g
}

func TestFull(t *testing.T) {
	g := Full(5)
	for i := 0; i < 5; i++ {
		if g.Degree(i) != 4 {
			t.Fatalf("node %d degree %d", i, g.Degree(i))
		}
	}
	if numEdges(g) != 10 {
		t.Fatalf("edges = %d", numEdges(g))
	}
}

func TestRegularProperties(t *testing.T) {
	rng := vec.NewRNG(41)
	cases := []struct{ n, d int }{
		{8, 4}, {96, 4}, {96, 5}, {192, 5}, {33, 4}, {10, 3}, {4, 2},
	}
	for _, c := range cases {
		g, err := Regular(c.n, c.d, rng)
		if err != nil {
			t.Fatalf("Regular(%d,%d): %v", c.n, c.d, err)
		}
		if !g.Connected() {
			t.Fatalf("Regular(%d,%d) not connected", c.n, c.d)
		}
		for i := 0; i < c.n; i++ {
			if g.Degree(i) != c.d {
				t.Fatalf("Regular(%d,%d): node %d degree %d", c.n, c.d, i, g.Degree(i))
			}
			// No self loops, no duplicate edges (adjacency sorted).
			prev := -1
			for _, j := range g.Neighbors(i) {
				if j == i {
					t.Fatalf("self loop at %d", i)
				}
				if j == prev {
					t.Fatalf("parallel edge %d-%d", i, j)
				}
				prev = j
			}
		}
	}
}

func TestRegularErrors(t *testing.T) {
	rng := vec.NewRNG(1)
	if _, err := Regular(5, 5, rng); err == nil {
		t.Fatal("d >= n should fail")
	}
	if _, err := Regular(5, 3, rng); err == nil {
		t.Fatal("odd n*d should fail")
	}
	if _, err := Regular(5, 1, rng); err == nil {
		t.Fatal("d=1 over n>2 should fail")
	}
}

func TestRegularRandomizes(t *testing.T) {
	// With different seeds the edge sets should differ (overwhelmingly).
	g1, err := Regular(32, 4, vec.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Regular(32, 4, vec.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < 32; i++ {
		for _, j := range g1.Neighbors(i) {
			if !g2.HasEdge(i, j) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical regular graphs")
	}
}

func TestRegularDeterministic(t *testing.T) {
	g1, _ := Regular(32, 4, vec.NewRNG(7))
	g2, _ := Regular(32, 4, vec.NewRNG(7))
	for i := 0; i < 32; i++ {
		a, b := g1.Neighbors(i), g2.Neighbors(i)
		if len(a) != len(b) {
			t.Fatal("seeded graphs differ")
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatal("seeded graphs differ")
			}
		}
	}
}

func TestMetropolisHastingsRowsSumToOne(t *testing.T) {
	rng := vec.NewRNG(42)
	g, err := Regular(24, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := MetropolisHastings(g)
	for i, row := range w {
		sum := row.Self
		for _, v := range row.Neighbor {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
		if row.Self <= 0 {
			t.Fatalf("row %d self weight %v", i, row.Self)
		}
	}
	// d-regular: every neighbor weight is 1/(d+1).
	for i, row := range w {
		for j, v := range row.Neighbor {
			if math.Abs(v-0.2) > 1e-12 {
				t.Fatalf("w[%d][%d] = %v, want 0.2", i, j, v)
			}
		}
	}
}

func TestMetropolisHastingsSymmetric(t *testing.T) {
	// Symmetry w_ij == w_ji makes the mixing matrix doubly stochastic.
	rng := vec.NewRNG(43)
	g, err := Regular(18, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := MetropolisHastings(g)
	for i := range w {
		for j, v := range w[i].Neighbor {
			if back, ok := w[j].Neighbor[i]; !ok || math.Abs(back-v) > 1e-12 {
				t.Fatalf("asymmetric weights: w[%d][%d]=%v w[%d][%d]=%v", i, j, v, j, i, back)
			}
		}
	}
}

func TestStaticProvider(t *testing.T) {
	g := Ring(5)
	s := NewStatic(g)
	g1, w1 := s.Round(0)
	g2, w2 := s.Round(10)
	if g1 != g2 {
		t.Fatal("static provider returned different graphs")
	}
	if len(w1) != 5 || len(w2) != 5 {
		t.Fatal("weights missing")
	}
}

func TestDynamicProviderChangesPerRound(t *testing.T) {
	dy := NewSeededDynamic(24, 4, 44)
	g0a, _ := dy.Round(0)
	g0b, _ := dy.Round(0)
	if g0a != g0b {
		t.Fatal("same round should return cached graph")
	}
	g1, _ := dy.Round(1)
	diff := 0
	for i := 0; i < 24; i++ {
		for _, j := range g0a.Neighbors(i) {
			if !g1.HasEdge(i, j) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("dynamic topology did not change between rounds")
	}
	if !g1.Connected() {
		t.Fatal("dynamic graph not connected")
	}
}

func TestQuickRegularAlwaysValid(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawD uint8) bool {
		n := int(rawN)%60 + 4
		d := int(rawD)%4 + 2
		if d >= n {
			d = n - 1
		}
		if n*d%2 != 0 {
			d-- // make n*d even
		}
		if d < 2 {
			return true // skip degenerate combinations
		}
		g, err := Regular(n, d, vec.NewRNG(seed))
		if err != nil {
			return false
		}
		if !g.Connected() {
			return false
		}
		for i := 0; i < n; i++ {
			if g.Degree(i) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, err := Regular(10, 4, vec.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	live := make([]bool, 10)
	for i := range live {
		live[i] = true
	}
	live[2], live[7] = false, false
	sub := Induced(g, live)
	if sub.N != g.N {
		t.Fatalf("induced graph renumbered nodes: N=%d", sub.N)
	}
	if sub.Degree(2) != 0 || sub.Degree(7) != 0 {
		t.Fatal("dead nodes kept edges")
	}
	for i := 0; i < 10; i++ {
		for _, j := range sub.Neighbors(i) {
			if !live[i] || !live[j] {
				t.Fatalf("edge {%d,%d} touches a dead node", i, j)
			}
			if !g.HasEdge(i, j) {
				t.Fatalf("induced edge {%d,%d} not in base graph", i, j)
			}
		}
	}
	// Edges between live nodes are preserved.
	for i := 0; i < 10; i++ {
		if !live[i] {
			continue
		}
		for _, j := range g.Neighbors(i) {
			if live[j] && !sub.HasEdge(i, j) {
				t.Fatalf("live edge {%d,%d} lost", i, j)
			}
		}
	}
}

func TestMaskedProviderWeights(t *testing.T) {
	g, err := Regular(8, 4, vec.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	m := NewEpochProvider(NewStatic(g), 8, 0)
	if m.NumLive() != 8 {
		t.Fatalf("expected 8 live nodes, got %d", m.NumLive())
	}
	full, fullW := m.Round(0)
	if numEdges(full) != numEdges(g) {
		t.Fatal("fully live mask altered the graph")
	}
	for i, w := range fullW {
		sum := w.Self
		for _, v := range w.Neighbor {
			sum += v
		}
		if d := sum - 1; d > 1e-12 || d < -1e-12 {
			t.Fatalf("row %d weights sum to %v", i, sum)
		}
	}

	m.SetLive(3, false)
	if m.Live(3) || m.NumLive() != 7 {
		t.Fatal("SetLive(3,false) not reflected")
	}
	sub, w := m.Round(0)
	if sub.Degree(3) != 0 {
		t.Fatal("dead node kept edges in masked round")
	}
	if w[3].Self != 1 || len(w[3].Neighbor) != 0 {
		t.Fatalf("dead node weight row should be self-only, got %+v", w[3])
	}
	for i := 0; i < 8; i++ {
		if _, ok := w[i].Neighbor[3]; ok {
			t.Fatalf("node %d still mixes with dead node 3", i)
		}
	}

	// Rejoining restores the original subgraph (cache must invalidate).
	m.SetLive(3, true)
	back, _ := m.Round(0)
	if numEdges(back) != numEdges(g) {
		t.Fatal("rejoin did not restore edges")
	}
}
