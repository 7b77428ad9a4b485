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

// FullSharingNode is standard D-PSGD: every round the whole parameter vector
// is exchanged and averaged with Metropolis-Hastings weights. It carries no
// state beyond the model: both calls run in a scratch.
type FullSharingNode struct {
	baseNode
	fc  codec.FloatCodec
	dim int
}

var _ Node = (*FullSharingNode)(nil)

// NewFullSharing builds a full-sharing baseline node.
func NewFullSharing(id int, model nn.Trainable, loader *datasets.Loader, opts TrainOpts, fc codec.FloatCodec) (*FullSharingNode, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if fc == nil {
		fc = codec.PlaneFlate32{}
	}
	return &FullSharingNode{
		baseNode: baseNode{id: id, model: model, loader: loader, opts: opts},
		fc:       fc,
		dim:      model.ParamCount(),
	}, nil
}

// Share implements Node: the dense parameter vector.
func (n *FullSharingNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	s := acquireScratch()
	defer s.release()
	n.model.CopyParams(vec.Grow(&s.params, n.dim))
	s.vals = vec.AppendNarrow(s.vals[:0], s.params)
	sv := codec.SparseVector{Dim: n.dim, Values: s.vals}
	return n.encode(s, sv, codec.IndexDense, n.fc)
}

// Aggregate implements Node: the classic weighted average
// x_i <- w_ii x_i + sum_j w_ij x_j.
func (n *FullSharingNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	return n.averageModel(w, msgs)
}

// averageModel is the parameter-domain Aggregate of both baselines: the
// per-parameter weighted average of the node's own model (unchanged since
// Share — the engines train only right before sharing) and the providers of
// each parameter, installed as the new model.
func (b *baseNode) averageModel(w topology.Weights, msgs map[int][]byte) error {
	s := acquireScratch()
	defer s.release()
	b.model.CopyParams(vec.Grow(&s.params, b.model.ParamCount()))
	if err := s.merge(b.cache, s.params, w, msgs); err != nil {
		return err
	}
	b.model.SetParams(s.avg)
	return nil
}

// RandomSamplingNode shares a fixed-size uniformly random subset of
// parameters each round. Thanks to the common PRNG trick (Section II-B2),
// only the seed travels as metadata.
type RandomSamplingNode struct {
	baseNode
	fc       codec.FloatCodec
	fraction float64
	rng      *vec.RNG
	dim      int
}

var _ Node = (*RandomSamplingNode)(nil)

// NewRandomSampling builds a random-sampling baseline node sharing the given
// fraction of parameters per round (the paper uses 37% to byte-match JWINS).
func NewRandomSampling(id int, model nn.Trainable, loader *datasets.Loader, opts TrainOpts, fraction float64, fc codec.FloatCodec, rng *vec.RNG) (*RandomSamplingNode, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("core: sharing fraction %v out of (0, 1]", fraction)
	}
	if fc == nil {
		fc = codec.PlaneFlate32{}
	}
	return &RandomSamplingNode{
		baseNode: baseNode{id: id, model: model, loader: loader, opts: opts},
		fc:       fc,
		fraction: fraction,
		rng:      rng,
		dim:      model.ParamCount(),
	}, nil
}

// Share implements Node: seed-described random subset of raw parameters.
func (n *RandomSamplingNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	s := acquireScratch()
	defer s.release()
	n.model.CopyParams(vec.Grow(&s.params, n.dim))
	k := int(n.fraction * float64(n.dim))
	if k < 1 {
		k = 1
	}
	if k >= n.dim {
		s.vals = vec.AppendNarrow(s.vals[:0], s.params)
		sv := codec.SparseVector{Dim: n.dim, Values: s.vals}
		return n.encode(s, sv, codec.IndexDense, n.fc)
	}
	seed := n.rng.Uint64()
	indices := codec.SeededIndices(seed, n.dim, k)
	s.vals = sparsify.AppendGather(s.vals[:0], s.params, indices)
	sv := codec.SparseVector{
		Dim:     n.dim,
		Seed:    seed,
		Indices: indices, // not encoded in seed mode; what a decode regenerates
		Values:  s.vals,
	}
	return n.encode(s, sv, codec.IndexSeed, n.fc)
}

// Aggregate implements Node: per-parameter weighted average over providers.
func (n *RandomSamplingNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	return n.averageModel(w, msgs)
}
