package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/topology"
	"repro/internal/vec"
)

// poisonScratchList overwrites every float buffer of every idle working set,
// up to its capacity, with NaN: a call that reads a buffer before writing it
// then produces NaNs instead of silently reusing its predecessor's values.
func poisonScratchList() {
	scratchList.mu.Lock()
	defer scratchList.mu.Unlock()
	for _, s := range scratchList.free {
		for _, buf := range [][]float64{
			s.params, s.coeffs, s.delta, s.scores, s.avg, s.newParams,
		} {
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = math.NaN()
			}
		}
		vals := s.vals[:cap(s.vals)]
		for i := range vals {
			vals[i] = float32(math.NaN())
		}
	}
}

// mixedFleet builds pairs of nodes — partners 2i and 2i+1 exchange payloads —
// that differ in everything a shared working set is sized by: dimension (and
// so padded length and k), transform (two wavelet plans, the DisableWavelet
// identity), accumulator variant, codec and algorithm (JWINS, both baselines and CHOCO).
func mixedFleet(t *testing.T) []Node {
	t.Helper()
	ds := tinyDataset(t)
	opts := TrainOpts{LR: 0.1, LocalSteps: 1}
	noWavelet := DefaultJWINSConfig()
	noWavelet.DisableWavelet = true
	noAcc := DefaultJWINSConfig()
	noAcc.DisableAccumulation = true
	noAcc.FloatCodec = codec.Raw32{}
	kinds := []struct {
		dim   int
		build func(id int, m *stubModel) (Node, error)
	}{
		{1237, func(id int, m *stubModel) (Node, error) {
			return NewJWINS(id, m, stubLoader(t, ds), opts, DefaultJWINSConfig(), vec.NewRNG(uint64(500+id)))
		}},
		{300, func(id int, m *stubModel) (Node, error) {
			return NewJWINS(id, m, stubLoader(t, ds), opts, noAcc, vec.NewRNG(uint64(500+id)))
		}},
		{700, func(id int, m *stubModel) (Node, error) {
			return NewJWINS(id, m, stubLoader(t, ds), opts, noWavelet, vec.NewRNG(uint64(500+id)))
		}},
		{900, func(id int, m *stubModel) (Node, error) {
			return NewFullSharing(id, m, stubLoader(t, ds), opts, codec.Raw32{})
		}},
		{411, func(id int, m *stubModel) (Node, error) {
			return NewRandomSampling(id, m, stubLoader(t, ds), opts, 0.37, nil, vec.NewRNG(uint64(500+id)))
		}},
		{523, func(id int, m *stubModel) (Node, error) {
			return NewChoco(id, m, stubLoader(t, ds), opts, ChocoConfig{Fraction: 0.2, Gamma: 0.3})
		}},
	}
	var nodes []Node
	for _, k := range kinds {
		for p := 0; p < 2; p++ {
			id := len(nodes)
			params := make([]float64, k.dim)
			r := vec.NewRNG(uint64(100 + id))
			for j := range params {
				params[j] = r.NormFloat64()
			}
			n, err := k.build(id, &stubModel{params: params})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// runMixed drives the mixed fleet for a few rounds — every node shares, then
// every node aggregates its partner's payload, kinds interleaved so
// consecutive calls never have the same shape — and returns everything
// observable: each payload, each installed model, each JWINS accumulator (base
// and the V it stands for).
// beforeCall runs before every Share and Aggregate.
func runMixed(t *testing.T, beforeCall func()) (payloads [][]byte, vectors [][]float64) {
	t.Helper()
	nodes := mixedFleet(t)
	// Interleave: first partners of every kind, then second partners.
	var order []int
	for half := 0; half < 2; half++ {
		for i := half; i < len(nodes); i += 2 {
			order = append(order, i)
		}
	}
	for round := 0; round < 8; round++ {
		for i, n := range nodes {
			m := n.Model().(*stubModel)
			r := vec.NewRNG(uint64(9000 + 31*i + round))
			for j := range m.params {
				m.params[j] += 0.01 * r.NormFloat64()
			}
		}
		sent := make([][]byte, len(nodes))
		for _, i := range order {
			beforeCall()
			p, _, err := nodes[i].Share(round)
			if err != nil {
				t.Fatalf("round %d node %d share: %v", round, i, err)
			}
			sent[i] = p
			payloads = append(payloads, p)
		}
		for _, i := range order {
			beforeCall()
			partner := i ^ 1
			w := topology.Weights{Self: 0.5, Neighbor: map[int]float64{partner: 0.5}}
			if err := nodes[i].Aggregate(round, w, map[int][]byte{partner: sent[partner]}); err != nil {
				t.Fatalf("round %d node %d aggregate: %v", round, i, err)
			}
			vectors = append(vectors, slices.Clone(nodes[i].Model().(*stubModel).params))
			if jn, ok := nodes[i].(*JWINSNode); ok {
				vectors = append(vectors, slices.Clone(jn.base), slices.Clone(jn.Accumulator()))
			}
		}
	}
	return payloads, vectors
}

// TestScratchSharingBitIdenticalToIsolation is the stale-content guard of the
// shared working sets: a fleet of mixed dimensions, transforms and algorithms
// whose every call runs in the one same recycled scratch — poisoned with NaN
// between calls — must produce payloads, installed models and accumulators
// bit-identical to the same fleet given a brand-new scratch for every call.
func TestScratchSharingBitIdenticalToIsolation(t *testing.T) {
	t.Cleanup(ResetScratchList)
	isoPayloads, isoVectors := runMixed(t, ResetScratchList)

	ResetScratchList()
	shPayloads, shVectors := runMixed(t, poisonScratchList)
	if n := ScratchSets(); n != 1 {
		t.Fatalf("serial calls created %d working sets, want 1 shared by every node", n)
	}

	if len(isoPayloads) != len(shPayloads) || len(isoVectors) != len(shVectors) {
		t.Fatalf("transcripts differ in length: %d/%d payloads, %d/%d vectors",
			len(isoPayloads), len(shPayloads), len(isoVectors), len(shVectors))
	}
	for i := range isoPayloads {
		if !bytes.Equal(isoPayloads[i], shPayloads[i]) {
			t.Fatalf("payload %d differs between isolated and shared scratch", i)
		}
	}
	for i := range isoVectors {
		if !floatsBitEqual(isoVectors[i], shVectors[i]) {
			t.Fatalf("vector %d (model or accumulator) differs between isolated and shared scratch", i)
		}
	}
}
