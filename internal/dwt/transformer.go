package dwt

// Transform maps a flat parameter vector to a flat coefficient vector and
// back. JWINS ranks, shares, and averages in the coefficient domain; with
// Identity in its place an algorithm degenerates to plain sparsification in
// the parameter domain (the Figure 2 comparison; JWINS nodes themselves hold
// a Plan, or none for the "JWINS without wavelet" ablation).
type Transform interface {
	// CoeffLen returns the length of the coefficient vector.
	CoeffLen() int
	// Forward writes the coefficients of x (length = input length given at
	// construction) into out (length = CoeffLen).
	Forward(x, out []float64)
	// Inverse writes the reconstruction of coeffs into out
	// (length = input length given at construction).
	Inverse(coeffs, out []float64)
}

// Transformer is a multi-level periodized DWT bound to a fixed input length.
// The input is zero-padded once to a multiple of 2^levels so every level sees
// an even-length signal; the coefficient vector length equals the padded
// length. The immutable layout (filter bank, padding) lives in a
// memoized Plan shared across every transformer with the same
// (dim, wavelet, levels); only the lazily-grown scratch buffers are per
// instance, which makes a Transformer NOT safe for concurrent use. It is the
// convenience form for a single caller (experiments, probes); DL nodes hold
// the Plan and run Plan.Forward/Inverse in their call's shared Scratch.
type Transformer struct {
	plan    *Plan
	scratch Scratch
}

var _ Transform = (*Transformer)(nil)

// NewTransformer builds a transformer for input vectors of length n using the
// given wavelet and number of decomposition levels. JWINS uses four levels of
// sym2, per the paper. The heavy layout work is memoized in the plan cache,
// so repeated construction across a fleet costs one small struct per node.
func NewTransformer(n int, w Wavelet, levels int) (*Transformer, error) {
	p, err := PlanFor(n, w, levels)
	if err != nil {
		return nil, err
	}
	return &Transformer{plan: p}, nil
}

// Plan returns the shared immutable plan backing this transformer.
func (t *Transformer) Plan() *Plan { return t.plan }

// CoeffLen returns the flat coefficient vector length (the padded length).
func (t *Transformer) CoeffLen() int { return t.plan.padded }

// Levels returns the number of decomposition levels.
func (t *Transformer) Levels() int { return t.plan.levels }

// Forward computes the multi-level DWT of x into out.
// len(x) must equal the input length and len(out) must equal CoeffLen.
func (t *Transformer) Forward(x, out []float64) {
	t.plan.Forward(x, out, &t.scratch)
}

// Inverse reconstructs the signal from coeffs into out.
// len(coeffs) must equal CoeffLen and len(out) must equal the input length.
func (t *Transformer) Inverse(coeffs, out []float64) {
	t.plan.Inverse(coeffs, out, &t.scratch)
}

// Identity is a Transform that passes vectors through unchanged: the
// parameter-domain arm of the Figure 2 reconstruction comparison.
type Identity struct{ N int }

var _ Transform = Identity{}

// CoeffLen returns the input length (identity mapping).
func (id Identity) CoeffLen() int { return id.N }

// Forward copies x into out.
func (id Identity) Forward(x, out []float64) {
	if len(x) != id.N || len(out) != id.N {
		panic("dwt: Identity length mismatch")
	}
	copy(out, x)
}

// Inverse copies coeffs into out.
func (id Identity) Inverse(coeffs, out []float64) {
	if len(coeffs) != id.N || len(out) != id.N {
		panic("dwt: Identity length mismatch")
	}
	copy(out, coeffs)
}
