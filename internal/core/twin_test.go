package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/datasets"
	"repro/internal/sparsify"
	"repro/internal/topology"
	"repro/internal/vec"
)

// refJWINS is JWINSNode's Share and Aggregate as they were at commit 1bffa23,
// before the accumulator telescoped: it carries V itself and the round
// baseline x^(t,0), and runs three forward transforms a round — the change
// DWT(x^(t,tau) - x^(t,0)), the payload DWT(x^(t,tau)) and the installed
// DWT(x^(t+1,0)). The deleted AccumulationDecay arm is left out, the deleted
// AccumulateLiteralEq4 arm is the literal field (a test-side arm only), and
// the scratch buffers that went with V are local here: the lockstep twin's
// oracle. It keeps its own DWT(x^(t,tau)) from Share to Aggregate, as the
// node did then, and records its selection in the embedded node's mask. Its
// payload values are narrowed to float32 where the vector is built, as the
// wire type now requires; the codecs narrowed them at that commit.
type refJWINS struct {
	*JWINSNode
	v         []float64 // V: accumulated importance scores (coeff domain)
	startPar  []float64 // x^(t,0)
	curCoeffs []float64 // DWT(x^(t,tau)), computed in Share, averaged in Aggregate
	// literal reads eq. (4) as written, V <- zeroShared(V') +
	// DWT(x^(t+1,0) - x^(t,0)), which re-adds the round's local change to the
	// coefficients not shared; the default adds only the averaging-induced
	// change DWT(x^(t+1,0) - x^(t,tau)), so each local change counts once.
	literal bool
}

func newRefJWINS(n *JWINSNode) *refJWINS {
	r := &refJWINS{JWINSNode: n, v: make([]float64, n.coeffDim), startPar: make([]float64, n.dim), curCoeffs: make([]float64, n.coeffDim)}
	n.model.CopyParams(r.startPar)
	return r
}

func (n *refJWINS) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	s := acquireScratch()
	defer s.release()
	n.model.CopyParams(vec.Grow(&s.params, n.dim))
	deltaPar := make([]float64, n.dim)
	deltaCoeff := make([]float64, n.coeffDim)
	vec.DiffInto(deltaPar, s.params, n.startPar)
	n.forward(s, deltaPar, deltaCoeff)
	// V' = V + DWT(x^(t,tau) - x^(t,0))   (eq. 3)
	if n.cfg.DisableAccumulation {
		copy(n.v, deltaCoeff)
	} else {
		for i, d := range deltaCoeff {
			n.v[i] += d
		}
	}
	alpha := n.cfg.Alphas.Mean()
	if !n.cfg.DisableRandomCutoff {
		alpha = n.cfg.Alphas.Sample(n.rng)
	}
	n.LastAlpha = alpha
	k := int(math.Round(alpha * float64(n.coeffDim)))
	if k < 1 {
		k = 1
	}
	clear(n.shared)
	n.fullShare = k >= n.coeffDim
	var sel []int
	if !n.fullShare {
		sel = sparsify.TopKIndicesWith(&s.topk, n.v, k)
		for _, idx := range sel {
			n.shared[idx/64] |= 1 << (idx % 64)
		}
	}

	n.forward(s, s.params, n.curCoeffs)
	sv := codec.SparseVector{Dim: n.coeffDim}
	mode := codec.IndexGamma
	if n.fullShare {
		mode = codec.IndexDense
		s.vals = vec.AppendNarrow(s.vals[:0], n.curCoeffs)
	} else {
		sv.Indices = sel
		s.vals = sparsify.AppendGather(s.vals[:0], n.curCoeffs, sel)
	}
	sv.Values = s.vals
	return n.encode(s, sv, mode, n.cfg.FloatCodec)
}

func (n *refJWINS) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	s := acquireScratch()
	defer s.release()
	if err := s.merge(n.cache, n.curCoeffs, w, msgs); err != nil {
		return err
	}
	if n.plan == nil {
		copy(vec.Grow(&s.newParams, n.dim), s.avg)
	} else {
		n.plan.Inverse(s.avg, vec.Grow(&s.newParams, n.dim), &s.dwt)
	}
	n.model.SetParams(s.newParams)
	if !n.cfg.DisableAccumulation {
		if n.fullShare {
			clear(n.v)
		}
		for _, idx := range sharedIndices(n.JWINSNode) {
			n.v[idx] = 0
		}
		installed := make([]float64, n.coeffDim)
		n.forward(s, s.newParams, installed)
		from := n.curCoeffs
		if n.literal {
			from = make([]float64, n.coeffDim)
			n.forward(s, n.startPar, from)
		}
		for k := range n.v {
			n.v[k] += installed[k] - from[k]
		}
	}
	copy(n.startPar, s.newParams)
	return nil
}

// twinReport is where two lockstep fleets parted.
type twinReport struct {
	firstDiff [2]int    // (round, node) of the first payload whose bytes differ; {-1, -1} if none
	jaccard   []float64 // per round, the least selected-set Jaccard over nodes
	drift     []float64 // per round, the largest ‖x_A - x_B‖∞ / ‖x_A‖∞ over nodes
	exact     int       // rounds before the first near-tie parted the selections (all if none)
}

// twin builds two fleets from one seed over one fixed graph — A of refJWINS,
// B of JWINSNode — and runs them round by round: every node trains, shares,
// and aggregates its neighbours' payloads. Selections may part only at
// near-ties (see nearTie), which are logged; anything else fails the test.
func twin(t *testing.T, cfg JWINSConfig, seed uint64, rounds int) twinReport {
	t.Helper()
	nodesA, _, g, w := buildLearningFleet(t, cfg, seed)
	nodesB, _, _, _ := buildLearningFleet(t, cfg, seed)
	refs := make([]*refJWINS, len(nodesA))
	for i, nd := range nodesA {
		refs[i] = newRefJWINS(nd.(*JWINSNode))
		nodesA[i] = refs[i]
	}
	rep := twinReport{firstDiff: [2]int{-1, -1}, exact: rounds}
	for round := 0; round < rounds; round++ {
		sent := [2][][]byte{make([][]byte, len(nodesA)), make([][]byte, len(nodesB))}
		rep.jaccard, rep.drift = append(rep.jaccard, 1), append(rep.drift, 0)
		for i := range nodesA {
			for f, nd := range []Node{nodesA[i], nodesB[i]} {
				nd.LocalTrain()
				p, _, err := nd.Share(round)
				if err != nil {
					t.Fatalf("round %d node %d fleet %d share: %v", round, i, f, err)
				}
				sent[f][i] = p
			}
			if !bytes.Equal(sent[0][i], sent[1][i]) && rep.firstDiff[0] < 0 {
				rep.firstDiff = [2]int{round, i}
			}
			a, b := refs[i], nodesB[i].(*JWINSNode)
			j := selectionJaccard(a.JWINSNode, b)
			rep.jaccard[round] = min(rep.jaccard[round], j)
			if j < 1 && !nearTie(t, a, b, round, i) {
				t.Fatalf("round %d node %d: selections part (Jaccard %.4f) away from a near-tie", round, i, j)
			}
			if j < 1 {
				rep.exact = min(rep.exact, round)
			}
		}
		for i := range nodesA {
			for f, nodes := range [][]Node{nodesA, nodesB} {
				msgs := map[int][]byte{}
				for _, j := range g.Neighbors(i) {
					msgs[j] = sent[f][j]
				}
				if err := nodes[i].Aggregate(round, w[i], msgs); err != nil {
					t.Fatalf("round %d node %d fleet %d aggregate: %v", round, i, f, err)
				}
			}
			xa, xb := make([]float64, refs[i].dim), make([]float64, refs[i].dim)
			nodesA[i].Model().CopyParams(xa)
			nodesB[i].Model().CopyParams(xb)
			vec.DiffInto(xb, xa, xb)
			rep.drift[round] = max(rep.drift[round], maxAbs(xb)/maxAbs(xa))
		}
	}
	return rep
}

// selectionJaccard is |I_A ∩ I_B| / |I_A ∪ I_B| of the two nodes' last
// selections (every coefficient on a full share).
func selectionJaccard(a, b *JWINSNode) float64 {
	var both, either int
	for idx := 0; idx < a.coeffDim; idx++ {
		if ia, ib := selected(a, idx), selected(b, idx); ia || ib {
			either++
			if ia && ib {
				both++
			}
		}
	}
	return float64(both) / float64(either)
}

func selected(n *JWINSNode, idx int) bool {
	return n.shared[idx/64]&(1<<(idx%64)) != 0 || n.fullShare
}

// nearTie logs the coefficients the two selections disagree on and reports
// whether each one's |V| is within 1e-9 relative of the least |V| fleet A
// selected (the k-th largest on a flat selection).
func nearTie(t *testing.T, a *refJWINS, b *JWINSNode, round, node int) bool {
	t.Helper()
	cut := math.Inf(1)
	for _, i := range sharedIndices(a.JWINSNode) {
		cut = math.Min(cut, math.Abs(a.v[i]))
	}
	ok := true
	for idx, v := range a.v {
		if selected(a.JWINSNode, idx) == selected(b, idx) {
			continue
		}
		tie := math.Abs(math.Abs(v)-cut) <= 1e-9*cut
		ok = ok && tie
		t.Logf("round %d node %d: coefficient %d selected by one fleet only: |V_A| %.17g, |V_B| %.17g, cut %.17g, near-tie %v",
			round, node, idx, math.Abs(v), math.Abs(b.Accumulator()[idx]), cut, tie)
	}
	return ok
}

// TestJWINSLockstepTwin holds the telescoped accumulator to the parent's
// three-transform form on every default-config arm: with no re-share in the
// run, every payload is byte-identical, the selections are equal (near-ties
// aside, which are logged and end the bitwise comparison), and the models
// agree to 1e-12 relative.
func TestJWINSLockstepTwin(t *testing.T) {
	const rounds = 24
	arms := map[string]func(*JWINSConfig){
		"flat":          func(*JWINSConfig) {},
		"no-wavelet":    func(c *JWINSConfig) { c.DisableWavelet = true },
		"no-accumulate": func(c *JWINSConfig) { c.DisableAccumulation = true },
		"full-share":    func(c *JWINSConfig) { c.Alphas = FixedAlpha(1) },
	}
	for name, set := range arms {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultJWINSConfig()
			set(&cfg)
			rep := twin(t, cfg, 808, rounds)
			if d := rep.firstDiff; d[0] >= 0 && d[0] < rep.exact {
				t.Fatalf("payload bytes differ first at round %d node %d", d[0], d[1])
			}
			for r := 0; r < rep.exact; r++ {
				if rep.jaccard[r] != 1 || rep.drift[r] > 1e-12 {
					t.Fatalf("round %d: least Jaccard %v, parameter drift %g", r, rep.jaccard[r], rep.drift[r])
				}
			}
			t.Logf("%d of %d rounds bitwise, largest drift %g", rep.exact, rounds, slices.Max(rep.drift))
		})
	}
}

// topKMass is the share of the node's |V'| mass its last selection carried
// (1 on a full share).
func topKMass(n *refJWINS) float64 {
	if n.fullShare {
		return 1
	}
	var sel, total float64
	for _, v := range n.v {
		total += math.Abs(v)
	}
	for _, i := range sharedIndices(n.JWINSNode) {
		sel += math.Abs(n.v[i])
	}
	return sel / total
}

// TestEq4LiteralArm runs eq. (4)'s two readings side by side: the default,
// which counts each local change once, and the literal one (refJWINS.literal).
// Both fleets are refJWINS over one seed of the TestEq4VariantsBothLearn
// fixture, so round 0, before any accumulator update, must select identical
// sets. Per round it logs the mean Jaccard of the two readings' selections
// and the mean share of |V'| mass each reading's top-k carries; the literal
// arm must learn past the bound TestEq4VariantsBothLearn sets.
func TestEq4LiteralArm(t *testing.T) {
	const rounds = 25
	cfg := DefaultJWINSConfig()
	cfg.FloatCodec = codec.Raw32{}
	var (
		fleets [2][]Node
		ds     *datasets.Dataset
		g      *topology.Graph
		w      []topology.Weights
	)
	for f := range fleets {
		var nodes []Node
		nodes, ds, g, w = buildLearningFleet(t, cfg, 404)
		for i, nd := range nodes {
			r := newRefJWINS(nd.(*JWINSNode))
			r.literal = f == 1
			nodes[i] = r
		}
		fleets[f] = nodes
	}
	n := float64(len(fleets[0]))
	t.Logf("round  jaccard  mass_default  mass_literal")
	for round := 0; round < rounds; round++ {
		for _, nodes := range fleets {
			for _, nd := range nodes {
				nd.LocalTrain()
			}
		}
		var jaccard float64
		var mass [2]float64
		sent := [2][][]byte{}
		for f, nodes := range fleets {
			for _, nd := range nodes {
				p, _, err := nd.Share(round)
				if err != nil {
					t.Fatal(err)
				}
				sent[f] = append(sent[f], p)
				mass[f] += topKMass(nd.(*refJWINS)) / n
			}
		}
		for i := range fleets[0] {
			jaccard += selectionJaccard(fleets[0][i].(*refJWINS).JWINSNode, fleets[1][i].(*refJWINS).JWINSNode)
		}
		jaccard /= n
		if round == 0 && jaccard != 1 {
			t.Fatalf("round 0: the readings select different sets (mean Jaccard %.4f) before any accumulator update", jaccard)
		}
		for f, nodes := range fleets {
			for i, nd := range nodes {
				msgs := map[int][]byte{}
				for _, j := range g.Neighbors(i) {
					msgs[j] = sent[f][j]
				}
				if err := nd.Aggregate(round, w[i], msgs); err != nil {
					t.Fatal(err)
				}
			}
		}
		t.Logf("%5d  %7.4f  %12.4f  %12.4f", round, jaccard, mass[0], mass[1])
	}
	accDefault, accLiteral := meanAccuracy(ds, fleets[0]), meanAccuracy(ds, fleets[1])
	t.Logf("accuracy after %d rounds: default %.4f, literal %.4f", rounds, accDefault, accLiteral)
	if accLiteral < 0.5 {
		t.Fatalf("literal eq. (4): accuracy %.2f, want > 0.5 (chance 0.25)", accLiteral)
	}
}
