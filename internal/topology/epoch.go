// epoch.go extends the provider vocabulary for the async engine's
// simulated-time world: graphs there are not keyed by a global round number
// (no such thing exists under the event-driven scheduler) but by *epochs* of
// simulated seconds. EpochProvider rotates the base graph once per epoch and
// filters it to the live node set, SeededDynamic supplies deterministic
// random-access per-epoch regular graphs, and the mixing instrumentation
// (spectral gap, edge turnover) quantifies why rotating helps: a fresh random
// regular graph every epoch keeps the expected spectral gap high, so
// information spreads in O(log n) epochs even when any single snapshot mixes
// poorly.
package topology

import (
	"math"
	"sync"

	"repro/internal/vec"
)

// SeededDynamic yields a random d-regular graph per round index where round
// t's graph is a pure function of (Seed, t): queries are random-access and
// repeatable, so a graph never depends on query history. The synchronous
// engine reads it per round (the paper's Figure 7); the async engine reads it
// per epoch through an EpochProvider, whose queries can repeat and, under
// trace replay, must regenerate the recorded sequence exactly, and draws the
// next epoch's graph on a worker while the current epoch runs.
//
// Graph is safe for concurrent use: generation runs outside the lock, and the
// two latest rounds drawn stay cached. Round is not; its weights cache serves
// one caller at a time (the sync engine).
type SeededDynamic struct {
	N, D int
	Seed uint64

	mu     sync.Mutex
	recent [2]seededRound // newest first

	wG      *Graph // the graph cachedW weights
	cachedW []Weights
}

// seededRound is one cached round of a SeededDynamic.
type seededRound struct {
	t int
	g *Graph
}

// NewSeededDynamic builds the provider. Parameters are validated on first
// use (Regular's constraints: n*d even, 2 <= d < n).
func NewSeededDynamic(n, d int, seed uint64) *SeededDynamic {
	return &SeededDynamic{N: n, D: d, Seed: seed}
}

// Round implements Provider. Mixing weights are built lazily: the
// EpochProvider path only needs the graph (it weights the live-induced
// subgraph), so rotations skip the full-graph weight pass.
func (s *SeededDynamic) Round(t int) (*Graph, []Weights) {
	g := s.Graph(t)
	if s.wG != g {
		s.wG, s.cachedW = g, MetropolisHastings(g)
	}
	return g, s.cachedW
}

// Graph returns round t's graph without building mixing weights. The
// per-round RNG is derived by mixing the round index into the base seed
// through SplitMix64, so neighboring rounds get statistically independent
// graphs. Two callers racing on an uncached round both draw it; the first
// to finish is cached and returned to both.
func (s *SeededDynamic) Graph(t int) *Graph {
	s.mu.Lock()
	g := s.lookup(t)
	s.mu.Unlock()
	if g != nil {
		return g
	}
	st := s.Seed ^ (uint64(t) + 0x65706f6368) // "epoch"
	rng := vec.NewRNG(vec.SplitMix64(&st))
	g, err := Regular(s.N, s.D, rng)
	if err != nil {
		panic("topology: seeded dynamic generation failed: " + err.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.lookup(t); c != nil {
		return c
	}
	s.recent[1], s.recent[0] = s.recent[0], seededRound{t: t, g: g}
	return g
}

// lookup returns round t's graph if it is cached; s.mu must be held.
func (s *SeededDynamic) lookup(t int) *Graph {
	for _, c := range s.recent {
		if c.g != nil && c.t == t {
			return c.g
		}
	}
	return nil
}

// EpochProvider rotates a base Provider on simulated-time epochs and filters
// every epoch's graph to the currently live nodes, with Metropolis-Hastings
// weights of the induced subgraph: rows of dead nodes are empty with
// Self == 1, so a rejoining node that has not yet re-earned edges keeps its
// own model. Round takes an *epoch index*, not a synchronous round number:
// epoch k starts at simulated time k·EpochSec. The live view is keyed by
// (epoch, liveVersion), so a SetLive racing an epoch boundary — churn
// processed at the same simulated instant the graph rotates — is always
// seen whichever of the two queries comes first: within an epoch it is
// patched in, across a boundary the new epoch's graph is induced from the
// current flags.
type EpochProvider struct {
	// Base yields the unfiltered graph per epoch index: Static repeats one
	// graph (only liveness changes across epochs), SeededDynamic
	// re-randomizes deterministically.
	Base Provider
	// EpochSec is the epoch length in simulated seconds. Non-positive means
	// a single epoch spanning the whole run: the base's epoch-0 graph, only
	// filtered for liveness (how the async engine runs a static topology).
	EpochSec float64

	liveView
}

// NewEpochProvider builds an epoch provider over n nodes, all initially live.
func NewEpochProvider(base Provider, n int, epochSec float64) *EpochProvider {
	return &EpochProvider{Base: base, EpochSec: epochSec, liveView: newLiveView(n)}
}

// graphOnly is satisfied by bases that can serve a round's graph without
// building mixing weights (SeededDynamic); EpochProvider weights the
// live-induced subgraph itself, so the base's weights are dead work.
type graphOnly interface {
	Graph(t int) *Graph
}

// Round implements Provider over the live-induced subgraph of epoch e.
func (p *EpochProvider) Round(e int) (*Graph, []Weights) {
	g, w, ok := p.view(e)
	if !ok {
		var base *Graph
		if gp, isGraphOnly := p.Base.(graphOnly); isGraphOnly {
			base = gp.Graph(e)
		} else {
			base, _ = p.Base.Round(e)
		}
		g, w = p.rebuild(e, base)
	}
	return g, w
}

// SLEMScratch holds the work buffers of MixingSLEM — the flattened matrix
// and the power-iteration vectors — so repeated gap computations (one per
// sampled epoch on a 2048-node run) reuse them instead of allocating O(n·d)
// each time. The zero value is ready; a scratch is not safe for concurrent
// use.
type SLEMScratch struct {
	idx  []int
	pos  []int
	x, y []float64
	// The live-restricted matrix in compressed rows: row k's terms are
	// val[e]·x[col[e]] for e in [off[k], off[k+1]), self weight first, then
	// the live neighbors in adjacency order.
	off, col []int
	val      []float64
}

// MixingSLEM returns the second-largest eigenvalue modulus of the mixing
// matrix W restricted to the live nodes (nil live = all live), estimated by
// deterministic power iteration with deflation of the top eigenvector.
//
// W over a connected live set is symmetric doubly stochastic (Metropolis-
// Hastings), so its top eigenpair is (1, uniform); iterating W on a vector
// kept orthogonal to uniform converges to |lambda_2|. The spectral gap
// 1 - |lambda_2| governs mixing: per gossip round, the deviation from
// consensus contracts by at least lambda_2, so a larger gap means faster
// information spread. A disconnected live subgraph has a second eigenvalue
// of 1 (gap 0): no amount of averaging merges separated components, which
// is exactly what the instrumentation should report.
//
// The estimate is a pure function of (g, w, live) — fixed start vector,
// fixed iteration/tolerance schedule — so replays and parallel runs
// reproduce it bit for bit.
func MixingSLEM(g *Graph, w []Weights, live []bool) float64 {
	return new(SLEMScratch).MixingSLEM(g, w, live)
}

// MixingSLEM is the scratch-reusing form of the package-level MixingSLEM:
// same estimate, bit for bit, with the work buffers kept across calls.
func (s *SLEMScratch) MixingSLEM(g *Graph, w []Weights, live []bool) float64 {
	idx := s.idx[:0]
	for i := 0; i < g.N; i++ {
		if live == nil || (i < len(live) && live[i]) {
			idx = append(idx, i)
		}
	}
	s.idx = idx
	m := len(idx)
	if m <= 1 {
		return 0
	}
	if cap(s.pos) < g.N {
		s.pos = make([]int, g.N)
	}
	pos := s.pos[:g.N]
	for k, i := range idx {
		pos[i] = k
	}
	if cap(s.x) < m {
		s.x = make([]float64, m)
		s.y = make([]float64, m)
	}
	x, y := s.x[:m], s.y[:m]
	// Flatten once: 400 iterations then read three arrays instead of hashing
	// into w[i].Neighbor per edge. Terms keep their order, so the estimate
	// keeps its bits.
	off, col, val := append(s.off[:0], 0), s.col[:0], s.val[:0]
	for k, i := range idx {
		col, val = append(col, k), append(val, w[i].Self)
		for _, j := range g.Adj[i] {
			if live == nil || (j < len(live) && live[j]) {
				col, val = append(col, pos[j]), append(val, w[i].Neighbor[j])
			}
		}
		off = append(off, len(col))
	}
	s.off, s.col, s.val = off, col, val
	// Deterministic non-uniform start vector, already roughly mean-free.
	rng := vec.NewRNG(0x6d6978) // "mix"
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
		// y = W x over the live-restricted rows.
		for k := range y {
			e, end := off[k], off[k+1]
			v := val[e] * x[col[e]]
			for e++; e < end; e++ {
				v += val[e] * x[col[e]]
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

func clampSLEM(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// SpectralGap is 1 - MixingSLEM: 0 for disconnected live subgraphs, close to
// 1 for expander-like graphs.
func SpectralGap(g *Graph, w []Weights, live []bool) float64 {
	return 1 - MixingSLEM(g, w, live)
}

// SpectralGap is the scratch-reusing form of the package-level SpectralGap.
func (s *SLEMScratch) SpectralGap(g *Graph, w []Weights, live []bool) float64 {
	return 1 - s.MixingSLEM(g, w, live)
}

// EdgeTurnover reports which fraction of cur's edges are new relative to
// prev (0 = identical edge set, 1 = fully rotated), counting only edges with
// both endpoints live in cur. A nil prev (the run's first epoch) counts as
// full turnover when cur has any edge. The async engine reports this per
// epoch as the neighbor-turnover rate.
func EdgeTurnover(prev, cur *Graph) float64 {
	total, fresh := 0, 0
	for i := 0; i < cur.N; i++ {
		for _, j := range cur.Adj[i] {
			if j <= i {
				continue
			}
			total++
			if prev == nil || i >= prev.N || !prev.HasEdge(i, j) {
				fresh++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fresh) / float64(total)
}
