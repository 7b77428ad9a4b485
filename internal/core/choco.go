package core

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/sparsify"
	"repro/internal/topology"
	"repro/internal/vec"
)

// ChocoConfig parameterizes CHOCO-SGD.
type ChocoConfig struct {
	// Fraction is the TopK compression budget per round (e.g. 0.20).
	Fraction float64
	// Gamma is the consensus step size; the paper tunes 0.6 for the 20%
	// budget and 0.1 for the 10% budget.
	Gamma float64
	// FloatCodec compresses the shared difference values (default flate32).
	FloatCodec codec.FloatCodec
}

// ChocoNode is one participant of memory-efficient CHOCO-SGD (Koloskova,
// Stich & Jaggi, ICML 2019), the communication-compressed baseline the paper
// compares against (Section IV-D). Each node keeps its own public replica x̂_i
// and the weighted neighborhood sum s_i = Σ_j w_ij x̂_j, shares a
// TopK-compressed difference q_i = Q(x^(t+1/2) - x̂_i), and applies the
// gossip correction x <- x^(t+1/2) + γ (s - x̂).
//
// Because s is correct only if it integrated every past q_j of the current
// neighbor set, CHOCO breaks down under dynamic topologies — exactly the
// behaviour the paper reports in Figure 7. Its vectors are the algorithm's
// state; per-call buffers come from a scratch.
type ChocoNode struct {
	baseNode
	cfg ChocoConfig
	dim int

	xhat  []float64 // x̂_i: own public replica
	s     []float64 // Σ_j w_ij x̂_j over the (fixed) neighborhood
	qSelf []float64 // q_i: own compressed difference as the wire carries it, from Share to Aggregate
}

var _ Node = (*ChocoNode)(nil)

// NewChoco builds a CHOCO-SGD node.
func NewChoco(id int, model nn.Trainable, loader *datasets.Loader, opts TrainOpts, cfg ChocoConfig) (*ChocoNode, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		return nil, fmt.Errorf("core: CHOCO compression fraction %v out of (0, 1]", cfg.Fraction)
	}
	if cfg.Gamma <= 0 {
		return nil, fmt.Errorf("core: CHOCO gamma must be positive, got %v", cfg.Gamma)
	}
	if cfg.FloatCodec == nil {
		cfg.FloatCodec = codec.PlaneFlate32{}
	}
	dim := model.ParamCount()
	return &ChocoNode{
		baseNode: baseNode{id: id, model: model, loader: loader, opts: opts},
		cfg:      cfg,
		dim:      dim,
		xhat:     make([]float64, dim),
		s:        make([]float64, dim),
		qSelf:    make([]float64, dim),
	}, nil
}

// Share implements Node: q_i = TopK(x^(t+1/2) - x̂_i) with gamma-coded index
// metadata. The node keeps q_i as its neighbours decode it, the float32
// payload values widened, so its own x̂_i and the x̂_i they sum into s agree.
func (n *ChocoNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	sc := acquireScratch()
	defer sc.release()
	n.model.CopyParams(vec.Grow(&sc.params, n.dim))
	diff := vec.Grow(&sc.delta, n.dim)
	vec.DiffInto(diff, sc.params, n.xhat)
	k := max(int(n.cfg.Fraction*float64(n.dim)), 1)
	sv := codec.SparseVector{Dim: n.dim}
	mode := codec.IndexDense
	if k >= n.dim {
		sc.vals = vec.AppendNarrow(sc.vals[:0], diff)
	} else {
		mode = codec.IndexGamma
		sv.Indices = sparsify.TopKIndicesWith(&sc.topk, diff, k)
		sc.vals = sparsify.AppendGather(sc.vals[:0], diff, sv.Indices)
	}
	sv.Values = sc.vals
	clear(n.qSelf)
	for j, v := range sv.Values {
		if sv.Indices != nil {
			j = sv.Indices[j]
		}
		n.qSelf[j] = float64(v)
	}
	return n.encode(sc, sv, mode, n.cfg.FloatCodec)
}

// Aggregate implements Node: integrate all q_j into s, update x̂, and apply
// the gossip correction.
func (n *ChocoNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	sc := acquireScratch()
	defer sc.release()
	decoded, err := sc.dec.decodeAll(n.cache, n.dim, w, msgs)
	defer sc.dec.releaseHeld(n.cache)
	if err != nil {
		return err
	}
	// s += w_ii q_i + Σ_j w_ij q_j, senders in increasing id order.
	for i, q := range n.qSelf {
		n.s[i] += w.Self * q
	}
	for _, m := range decoded {
		if m.sv.Indices == nil {
			for i, v := range m.sv.Values {
				n.s[i] += m.weight * float64(v)
			}
		} else {
			for pos, idx := range m.sv.Indices {
				n.s[idx] += m.weight * float64(m.sv.Values[pos])
			}
		}
	}
	// x̂_i += q_i.
	for i, q := range n.qSelf {
		n.xhat[i] += q
	}
	// x <- x^(t+1/2) + γ (s - x̂); the model still holds x^(t+1/2), the engines
	// train only right before sharing.
	params := vec.Grow(&sc.params, n.dim)
	n.model.CopyParams(params)
	for i := range params {
		params[i] += n.cfg.Gamma * (n.s[i] - n.xhat[i])
	}
	n.model.SetParams(params)
	return nil
}
