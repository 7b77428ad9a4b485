package core

import (
	"fmt"
	"math"
	"sort"

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

	// AccumulateLiteralEq4 switches the accumulator update to the literal
	// reading of eq. (4): V <- zeroShared(V') + DWT(x^(t+1,0) - x^(t,0)),
	// which re-adds the local change for unshared coefficients. The default
	// (false) adds only the averaging-induced change DWT(x^(t+1,0) - x^(t,tau)),
	// so unshared coefficients accumulate the total round change exactly once.
	// See DESIGN.md, "Equation (4) ambiguity".
	AccumulateLiteralEq4 bool

	// BandAdaptive implements the paper's future-work direction of adapting
	// the selection to parameter structure: the round's coefficient budget K
	// is split across wavelet sub-bands in proportion to each band's
	// accumulated importance mass, and TopK runs inside each band. Ignored
	// when the wavelet is disabled.
	BandAdaptive bool

	// AccumulationDecay in (0, 1] multiplies the carried-over importance
	// scores before each round's update, discounting stale accumulated
	// changes — the concern Deep Gradient Compression (cited in Section V)
	// addresses with momentum correction. 0 or 1 keeps the paper's plain sum.
	AccumulationDecay float64
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
// a call needs comes from the Scratch the call runs in.
type JWINSNode struct {
	baseNode
	cfg  JWINSConfig
	plan *dwt.Plan // nil under DisableWavelet: coefficients are the parameters
	rng  *vec.RNG

	dim       int       // flat parameter dimension
	coeffDim  int       // coefficient vector dimension
	acc       []float64 // V: accumulated importance scores (coeff domain)
	startPar  []float64 // x^(t,0)
	curCoeffs []float64 // DWT(x^(t,tau)), computed in Share, averaged in Aggregate

	// lastShared is the node's own copy of the indices shared this round,
	// sized to the round's k (never to coeffDim): a full share (k == coeffDim)
	// sets fullShare and leaves it empty — every coefficient goes out as a
	// dense payload and Aggregate clears all of V.
	lastShared []int
	fullShare  bool

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
		baseNode:  baseNode{id: id, model: model, loader: loader, opts: opts},
		cfg:       cfg,
		plan:      plan,
		rng:       rng,
		dim:       dim,
		coeffDim:  cd,
		acc:       make([]float64, cd),
		startPar:  make([]float64, dim),
		curCoeffs: make([]float64, cd),
	}
	model.CopyParams(n.startPar)
	return n, nil
}

// CoeffDim returns the wavelet coefficient dimension.
func (n *JWINSNode) CoeffDim() int { return n.coeffDim }

// Accumulator returns the live importance-score vector V (read-only use).
func (n *JWINSNode) Accumulator() []float64 { return n.acc }

// forward writes the coefficients of x into out, running the plan's DWT in
// the call's scratch (the identity under DisableWavelet).
func (n *JWINSNode) forward(s *Scratch, x, out []float64) {
	if n.plan == nil {
		copy(out, x)
		return
	}
	n.plan.Forward(x, out, &s.dwt)
}

// Share implements lines 5-8 of Algorithm 1: accumulate the wavelet-domain
// model change, sample the cut-off, select TopK of the accumulated scores,
// and encode the selected coefficients of DWT(x^(t,tau)) with compressed
// index metadata.
func (n *JWINSNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	s := AcquireScratch()
	defer s.Release()
	n.model.CopyParams(vec.Grow(&s.Params, n.dim))
	vec.DiffInto(vec.Grow(&s.DeltaPar, n.dim), s.Params, n.startPar)
	n.forward(s, s.DeltaPar, vec.Grow(&s.deltaCoeff, n.coeffDim))

	// V' = V + DWT(x^(t,tau) - x^(t,0))   (eq. 3)
	switch {
	case n.cfg.DisableAccumulation:
		copy(n.acc, s.deltaCoeff)
	case n.cfg.AccumulationDecay > 0 && n.cfg.AccumulationDecay < 1:
		vec.Scale(n.acc, n.cfg.AccumulationDecay)
		vec.Add(n.acc, s.deltaCoeff)
	default:
		vec.Add(n.acc, s.deltaCoeff)
	}

	// Randomized cut-off (line 6).
	alpha := n.cfg.Alphas.Mean()
	if !n.cfg.DisableRandomCutoff {
		alpha = n.cfg.Alphas.Sample(n.rng)
	}
	n.LastAlpha = alpha
	k := int(math.Round(alpha * float64(n.coeffDim)))
	if k < 1 {
		k = 1
	}

	// TopK over accumulated importance (line 7), optionally split per band.
	// A full share has nothing to rank: it sends and resets every coefficient.
	n.lastShared = n.lastShared[:0]
	n.fullShare = k >= n.coeffDim
	if !n.fullShare {
		var sel []int
		if n.cfg.BandAdaptive {
			sel = n.bandAdaptiveTopK(s, k)
		} else {
			sel = sparsify.TopKIndicesWith(&s.TopK, n.acc, k)
		}
		if cap(n.lastShared) < k {
			n.lastShared = make([]int, 0, k) // exact: ends at the largest partial k drawn
		}
		n.lastShared = append(n.lastShared, sel...)
	}

	// Share DWT(x^(t,tau))[I] with compressed indices (line 8).
	n.forward(s, s.Params, n.curCoeffs)
	sv := codec.SparseVector{Dim: n.coeffDim}
	mode := codec.IndexGamma
	if n.fullShare {
		mode = codec.IndexDense // skip index metadata entirely
		sv.Values = n.curCoeffs
	} else {
		sv.Indices = n.lastShared
		s.Vals = sparsify.AppendGather(s.Vals[:0], n.curCoeffs, n.lastShared)
		sv.Values = s.Vals
	}
	return encodeSparsePayloadWith(&s.Enc, sv, mode, n.cfg.FloatCodec)
}

// Aggregate implements lines 9-12 of Algorithm 1: average the received
// partial wavelet vectors with the node's own coefficients (per-coefficient,
// weight-normalized), invert the transform, and update the accumulator.
func (n *JWINSNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	s := AcquireScratch()
	defer s.Release()
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
		// Reset V for the coefficients just shared (line 12), then fold in the
		// round's remaining model change (eq. 4): V += DWT(x^(t+1,0)) -
		// DWT(x^(t,tau)), or - DWT(x^(t,0)) under the literal reading.
		if n.fullShare {
			clear(n.acc)
		}
		for _, idx := range n.lastShared {
			n.acc[idx] = 0
		}
		n.forward(s, s.newParams, vec.Grow(&s.installed, n.coeffDim))
		from := n.curCoeffs
		if n.cfg.AccumulateLiteralEq4 {
			from = vec.Grow(&s.startCoeffs, n.coeffDim)
			n.forward(s, n.startPar, from)
		}
		for k := range n.acc {
			n.acc[k] += s.installed[k] - from[k]
		}
	}
	copy(n.startPar, s.newParams)
	return nil
}

// bandAdaptiveTopK distributes the budget k over wavelet sub-bands
// proportionally to each band's accumulated |V| mass, then selects TopK
// inside each band. Bands whose share rounds to zero still contribute their
// single largest coefficient when mass is non-zero, and any remainder is
// filled from the globally best unselected coefficients.
// Every call runs through the call's scratch (bandMasses, bandSel, bandOut,
// the shared top-k scratch): the band path is on the share hot path for
// band-adaptive fleets and must stay allocation-free in steady state. Each
// top-k call's result is consumed before the next reuses the scratch; the
// returned slice stays valid until the scratch's next selection.
func (n *JWINSNode) bandAdaptiveTopK(s *Scratch, k int) []int {
	if n.plan == nil {
		return sparsify.TopKIndicesWith(&s.TopK, n.acc, k)
	}
	bands := n.plan.Bands()
	s.bandMasses = s.bandMasses[:0]
	var total float64
	for _, b := range bands {
		var m float64
		for _, v := range n.acc[b.Offset : b.Offset+b.Len] {
			m += math.Abs(v)
		}
		s.bandMasses = append(s.bandMasses, m)
		total += m
	}
	if total == 0 {
		return sparsify.TopKIndicesWith(&s.TopK, n.acc, k)
	}
	if s.bandSel == nil {
		s.bandSel = make(map[int]bool, k)
	}
	clear(s.bandSel)
	selected := s.bandSel
	for bi, b := range bands {
		kb := int(math.Round(float64(k) * s.bandMasses[bi] / total))
		if kb == 0 && s.bandMasses[bi] > 0 {
			kb = 1
		}
		if kb > b.Len {
			kb = b.Len
		}
		if kb == 0 {
			continue
		}
		local := sparsify.TopKIndicesWith(&s.TopK, n.acc[b.Offset:b.Offset+b.Len], kb)
		for _, li := range local {
			if len(selected) >= k {
				break
			}
			selected[b.Offset+li] = true
		}
	}
	// Fill any remainder from the global ranking.
	if len(selected) < k {
		for _, idx := range sparsify.TopKIndicesWith(&s.TopK, n.acc, k+len(selected)) {
			if len(selected) >= k {
				break
			}
			selected[idx] = true
		}
	}
	s.bandOut = s.bandOut[:0]
	for idx := range selected {
		s.bandOut = append(s.bandOut, idx)
	}
	sort.Ints(s.bandOut)
	return s.bandOut
}

// encodeSparsePayloadWith wraps codec.EncodeSparseWith — the node's reusable
// encode scratch stages the intermediates; the returned payload itself is
// always freshly allocated — with shared error context.
func encodeSparsePayloadWith(s *codec.EncodeScratch, sv codec.SparseVector, mode codec.IndexMode, fc codec.FloatCodec) ([]byte, codec.ByteBreakdown, error) {
	buf, bd, err := codec.EncodeSparseWith(s, sv, mode, fc)
	if err != nil {
		return nil, bd, fmt.Errorf("core: encoding share payload: %w", err)
	}
	return buf, bd, nil
}
