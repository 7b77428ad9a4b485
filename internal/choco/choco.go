// Package choco implements the memory-efficient CHOCO-SGD algorithm of
// Koloskova, Stich & Jaggi (ICML 2019), the state-of-the-art
// communication-compressed decentralized learning baseline the paper
// compares against (Section IV-D). Each node keeps its own public replica
// x̂_i and the weighted neighborhood sum s_i = Σ_j w_ij x̂_j, shares a
// TopK-compressed difference q_i = Q(x^(t+1/2) - x̂_i), and applies the
// gossip correction x <- x^(t+1/2) + γ (s - x̂).
//
// Because the correctness of s depends on having integrated every past q_j of
// the *current* neighbor set, CHOCO breaks down under dynamic topologies —
// exactly the behaviour the paper reports in Figure 7.
package choco

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/sparsify"
	"repro/internal/topology"
	"repro/internal/vec"
)

// Config parameterizes CHOCO-SGD.
type Config struct {
	// Fraction is the TopK compression budget per round (e.g. 0.20).
	Fraction float64
	// Gamma is the consensus step size; the paper tunes 0.6 for the 20%
	// budget and 0.1 for the 10% budget.
	Gamma float64
	// FloatCodec compresses the shared difference values (default flate32).
	FloatCodec codec.FloatCodec
}

// Node is one CHOCO-SGD participant. It implements core.Node. Its vectors are
// the algorithm's state; per-call buffers come from a core.Scratch.
type Node struct {
	id     int
	model  nn.Trainable
	loader *datasets.Loader
	opts   core.TrainOpts
	cfg    Config

	dim   int
	xhat  []float64 // x̂_i: own public replica
	s     []float64 // Σ_j w_ij x̂_j over the (fixed) neighborhood
	qSelf []float64 // q_i: own quantized difference, from Share to Aggregate
	spare []byte    // the handed-back payload the next Share encodes into
}

var _ core.Node = (*Node)(nil)

// New builds a CHOCO-SGD node.
func New(id int, model nn.Trainable, loader *datasets.Loader, opts core.TrainOpts, cfg Config) (*Node, error) {
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		return nil, fmt.Errorf("choco: compression fraction %v out of (0, 1]", cfg.Fraction)
	}
	if cfg.Gamma <= 0 {
		return nil, fmt.Errorf("choco: gamma must be positive, got %v", cfg.Gamma)
	}
	if cfg.FloatCodec == nil {
		cfg.FloatCodec = codec.PlaneFlate32{}
	}
	if opts.LR <= 0 || opts.LocalSteps <= 0 {
		return nil, fmt.Errorf("choco: invalid train opts %+v", opts)
	}
	dim := model.ParamCount()
	return &Node{
		id:     id,
		model:  model,
		loader: loader,
		opts:   opts,
		cfg:    cfg,
		dim:    dim,
		xhat:   make([]float64, dim),
		s:      make([]float64, dim),
		qSelf:  make([]float64, dim),
	}, nil
}

// ID implements core.Node.
func (n *Node) ID() int { return n.id }

// RecyclePayload implements core.PayloadRecycler: the next Share encodes
// into p.
func (n *Node) RecyclePayload(p []byte) { n.spare = p }

// LocalStepCount reports tau; the simulation's time model uses it.
func (n *Node) LocalStepCount() int { return n.opts.LocalSteps }

// Model implements core.Node.
func (n *Node) Model() nn.Trainable { return n.model }

// LocalTrain implements core.Node.
func (n *Node) LocalTrain() float64 {
	var total float64
	for s := 0; s < n.opts.LocalSteps; s++ {
		x, y := n.loader.Next()
		total += n.model.TrainBatch(x, y, n.opts.LR)
	}
	return total / float64(n.opts.LocalSteps)
}

// Share implements core.Node: q_i = TopK(x^(t+1/2) - x̂_i) with gamma-coded
// index metadata.
func (n *Node) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	sc := core.AcquireScratch()
	defer sc.Release()
	n.model.CopyParams(vec.Grow(&sc.Params, n.dim))
	diff := vec.Grow(&sc.DeltaPar, n.dim)
	vec.DiffInto(diff, sc.Params, n.xhat)
	k := int(n.cfg.Fraction * float64(n.dim))
	if k < 1 {
		k = 1
	}
	sv := codec.SparseVector{Dim: n.dim}
	mode := codec.IndexGamma
	if k >= n.dim {
		mode = codec.IndexDense
		sv.Values = diff
		copy(n.qSelf, diff)
	} else {
		sv.Indices = sparsify.TopKIndicesWith(&sc.TopK, diff, k)
		sc.Vals = sparsify.AppendGather(sc.Vals[:0], diff, sv.Indices)
		sv.Values = sc.Vals
		clear(n.qSelf)
		sparsify.Scatter(n.qSelf, sv.Indices, sv.Values)
	}
	buf, bd, err := codec.EncodeSparseInto(n.spare, &sc.Enc, sv, mode, n.cfg.FloatCodec)
	n.spare = nil
	if err != nil {
		return nil, bd, fmt.Errorf("choco: encoding payload: %w", err)
	}
	return buf, bd, nil
}

// Aggregate implements core.Node: integrate all q_j into s, update x̂, and
// apply the gossip correction.
func (n *Node) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	// s += w_ii q_i + Σ_j w_ij q_j. Senders are processed in increasing id
	// order for bit-reproducible accumulation.
	for i, q := range n.qSelf {
		n.s[i] += w.Self * q
	}
	senders := make([]int, 0, len(msgs))
	for from := range msgs {
		senders = append(senders, from)
	}
	sort.Ints(senders)
	for _, from := range senders {
		buf := msgs[from]
		wj, ok := w.Neighbor[from]
		if !ok {
			return fmt.Errorf("choco: payload from %d but no mixing weight", from)
		}
		sv, err := codec.DecodeSparse(buf)
		if err != nil {
			return fmt.Errorf("choco: payload from %d: %w", from, err)
		}
		if sv.Dim != n.dim {
			return fmt.Errorf("choco: payload from %d has dim %d, want %d", from, sv.Dim, n.dim)
		}
		if sv.Indices == nil {
			for i, v := range sv.Values {
				n.s[i] += wj * v
			}
		} else {
			for pos, idx := range sv.Indices {
				n.s[idx] += wj * sv.Values[pos]
			}
		}
	}
	// x̂_i += q_i.
	for i, q := range n.qSelf {
		n.xhat[i] += q
	}
	// x <- x^(t+1/2) + γ (s - x̂); the model still holds x^(t+1/2), the engines
	// train only right before sharing.
	sc := core.AcquireScratch()
	defer sc.Release()
	params := vec.Grow(&sc.Params, n.dim)
	n.model.CopyParams(params)
	for i := range params {
		params[i] += n.cfg.Gamma * (n.s[i] - n.xhat[i])
	}
	n.model.SetParams(params)
	return nil
}
