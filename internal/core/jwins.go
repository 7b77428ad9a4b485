package core

import (
	"math"
	"math/bits"

	"repro/internal/codec"
	"repro/internal/datasets"
	"repro/internal/dwt"
	"repro/internal/nn"
	"repro/internal/sparsify"
	"repro/internal/topology"
	"repro/internal/vec"
)

// JWINSConfig configures the JWINS node (Algorithm 1). The zero value is not
// usable; start from DefaultJWINSConfig.
type JWINSConfig struct {
	// Wavelet names the transform basis (default sym2, the paper's choice).
	Wavelet string
	// Levels is the decomposition depth (default 4, per the paper).
	Levels int
	// Alphas is the randomized cut-off distribution.
	Alphas AlphaDist
	// FloatCodec compresses shared coefficient values (default flate32).
	FloatCodec codec.FloatCodec

	// Ablation switches (Figure 8):
	// DisableWavelet ranks and averages in the raw parameter domain
	// (degenerates JWINS to accumulated TopK).
	DisableWavelet bool
	// DisableAccumulation ranks by the current round's change only.
	DisableAccumulation bool
	// DisableRandomCutoff always shares the mean of the alpha distribution.
	DisableRandomCutoff bool
}

// DefaultJWINSConfig returns the paper's configuration: 4-level sym2 wavelets,
// the default alpha distribution, and flate32 value compression.
func DefaultJWINSConfig() JWINSConfig {
	return JWINSConfig{
		Wavelet:    "sym2",
		Levels:     4,
		Alphas:     DefaultAlphas(),
		FloatCodec: codec.PlaneFlate32{},
	}
}

// JWINSNode implements Algorithm 1 of the paper. Its fields are the state the
// algorithm's equations carry from one call to the next; every other buffer
// a call needs comes from the scratch the call runs in. Eq. (4) is read as
// error feedback that counts each local change once, V <- zeroShared(V') +
// DWT(x^(t+1,0)) - DWT(x^(t,tau)), and telescoped: the node carries
// base = DWT(x) - V, per coefficient the value it last went out at (DWT(x^0)
// until it first does), and a Share repeated with no Aggregate between (a
// node rejoining after churn) counts its change once. DWT(x^(t,tau)) is not
// kept: Share transforms the model into its scratch, and Aggregate, which
// sees the same model (see Node), transforms it again, so a round runs two
// forward transforms and one inverse.
type JWINSNode struct {
	baseNode
	cfg  JWINSConfig
	plan *dwt.Plan // nil under DisableWavelet: coefficients are the parameters
	rng  *vec.RNG

	dim      int       // flat parameter dimension
	coeffDim int       // coefficient vector dimension
	base     []float64 // DWT(x) - V: the coefficients the importance scores V are measured from
	start    []float64 // x^0 until base's first transform (begin), nil after
	view     []float64 // Accumulator's V until the next Share or Aggregate; empty when stale

	// shared marks the coefficients the last Share selected, one bit each
	// (bit i%64 of word i/64), for Aggregate's reset of V. A full share
	// (k == coeffDim) sets fullShare and leaves the mask clear: every
	// coefficient goes out as a dense payload and Aggregate clears all of V.
	shared    []uint64
	fullShare bool

	// LastAlpha records the cut-off sampled in the most recent Share call
	// (instrumented for the Figure 3 experiment).
	LastAlpha float64
}

var _ Node = (*JWINSNode)(nil)

// NewJWINS builds a JWINS node. Each node owns its RNG (cut-off draws are
// independent across nodes, per Section III-B).
func NewJWINS(id int, model nn.Trainable, loader *datasets.Loader, opts TrainOpts, cfg JWINSConfig, rng *vec.RNG) (*JWINSNode, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Alphas.Validate(); err != nil {
		return nil, err
	}
	if cfg.FloatCodec == nil {
		cfg.FloatCodec = codec.PlaneFlate32{}
	}
	dim := model.ParamCount()
	cd := dim
	var plan *dwt.Plan
	if !cfg.DisableWavelet {
		if cfg.Wavelet == "" {
			cfg.Wavelet = "sym2"
		}
		if cfg.Levels <= 0 {
			cfg.Levels = 4
		}
		w, err := dwt.ByName(cfg.Wavelet)
		if err != nil {
			return nil, err
		}
		if plan, err = dwt.PlanFor(dim, w, cfg.Levels); err != nil {
			return nil, err
		}
		cd = plan.CoeffLen()
	}
	n := &JWINSNode{
		baseNode: baseNode{id: id, model: model, loader: loader, opts: opts},
		cfg:      cfg,
		plan:     plan,
		rng:      rng,
		dim:      dim,
		coeffDim: cd,
		base:     make([]float64, cd),
		shared:   make([]uint64, (cd+63)/64),
	}
	// V^0 = 0, so base = DWT(x^0), transformed on the node's first call; a
	// copy-on-write model that has not diverged lends its shared x^0.
	if sp, ok := model.(interface{ SharedParams() []float64 }); ok {
		n.start = sp.SharedParams()
	}
	if n.start == nil {
		n.start = make([]float64, dim)
		model.CopyParams(n.start)
	}
	return n, nil
}

// begin takes a call's working set, runs base's deferred first transform,
// DWT(x^0), and drops the cached V.
func (n *JWINSNode) begin() *scratch {
	s := acquireScratch()
	if n.start != nil {
		n.forward(s, n.start, n.base)
		n.start = nil
	}
	n.view = n.view[:0]
	return s
}

// Accumulator returns the importance scores V = DWT(x) - base (read-only
// use): V' after a Share, the carried V after an Aggregate. It is computed
// once per Share or Aggregate, so training after its first call is not seen.
func (n *JWINSNode) Accumulator() []float64 {
	if len(n.view) == 0 {
		s := n.begin()
		defer s.release()
		n.model.CopyParams(vec.Grow(&s.params, n.dim))
		n.forward(s, s.params, vec.Grow(&n.view, n.coeffDim))
		vec.Sub(n.view, n.base)
	}
	return n.view
}

// forward writes the coefficients of x into out, running the plan's DWT in
// the call's scratch (the identity under DisableWavelet).
func (n *JWINSNode) forward(s *scratch, x, out []float64) {
	if n.plan == nil {
		copy(out, x)
		return
	}
	n.plan.Forward(x, out, &s.dwt)
}

// coeffs transforms the node's model into the call's scratch and returns
// DWT(x^(t,tau)), valid until the call returns.
func (n *JWINSNode) coeffs(s *scratch) []float64 {
	n.model.CopyParams(vec.Grow(&s.params, n.dim))
	cur := vec.Grow(&s.coeffs, n.coeffDim)
	n.forward(s, s.params, cur)
	return cur
}

// Share implements lines 5-8 of Algorithm 1: sample the cut-off, score the
// coefficients of DWT(x^(t,tau)) by their accumulated change
// V' = DWT(x^(t,tau)) - base (eq. 3), select TopK of the scores, and encode
// the selected coefficients with compressed index metadata.
func (n *JWINSNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	s := n.begin()
	defer s.release()
	cur := n.coeffs(s)

	// Randomized cut-off (line 6).
	n.LastAlpha = n.cfg.Alphas.Mean()
	if !n.cfg.DisableRandomCutoff {
		n.LastAlpha = n.cfg.Alphas.Sample(n.rng)
	}
	k := max(1, int(math.Round(n.LastAlpha*float64(n.coeffDim))))

	// TopK over accumulated importance (line 7). A full share has nothing to
	// rank: it sends and resets every coefficient. The selection is sorted
	// and lives in the scratch until it is encoded.
	clear(n.shared)
	n.fullShare = k >= n.coeffDim
	var sel []int
	if !n.fullShare {
		scores := vec.Grow(&s.scores, n.coeffDim)
		vec.DiffInto(scores, cur, n.base)
		sel = sparsify.TopKIndicesWith(&s.topk, scores, k)
		for _, idx := range sel {
			n.shared[idx/64] |= 1 << (idx % 64)
		}
	}

	// Share DWT(x^(t,tau))[I] with compressed indices (line 8).
	sv := codec.SparseVector{Dim: n.coeffDim}
	mode := codec.IndexGamma
	if n.fullShare {
		mode = codec.IndexDense // skip index metadata entirely
		s.vals = vec.AppendNarrow(s.vals[:0], cur)
	} else {
		sv.Indices = sel
		s.vals = sparsify.AppendGather(s.vals[:0], cur, sel)
	}
	sv.Values = s.vals
	return n.encode(s, sv, mode, n.cfg.FloatCodec)
}

// Aggregate implements lines 9-12 of Algorithm 1: average the received
// partial wavelet vectors with the node's own coefficients (per-coefficient,
// weight-normalized), invert the transform, and update the accumulator. The
// own coefficients are DWT(x^(t,tau)) again, transformed from the model the
// last Share saw.
func (n *JWINSNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	s := n.begin()
	defer s.release()
	cur := n.coeffs(s)
	if err := s.merge(n.cache, cur, w, msgs); err != nil {
		return err
	}
	if n.plan == nil {
		copy(vec.Grow(&s.newParams, n.dim), s.avg)
	} else {
		n.plan.Inverse(s.avg, vec.Grow(&s.newParams, n.dim), &s.dwt)
	}
	n.model.SetParams(s.newParams)
	// Reset V for the coefficients just shared (line 12) and fold in the
	// round's remaining change (eq. 4): base[I] = DWT(x^(t,tau))[I].
	switch {
	case n.cfg.DisableAccumulation:
		// V is the next round's change alone: base = DWT(x^(t+1,0)).
		n.forward(s, s.newParams, n.base)
	case n.fullShare:
		copy(n.base, cur)
	default:
		for i, word := range n.shared {
			for ; word != 0; word &= word - 1 {
				idx := i*64 + bits.TrailingZeros64(word)
				n.base[idx] = cur[idx]
			}
		}
	}
	return nil
}
