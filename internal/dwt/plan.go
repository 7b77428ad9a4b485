package dwt

import (
	"fmt"
	"sync"
)

// Plan is an immutable, fleet-shareable description of one periodized
// multi-level DWT: the filter bank (h plus the derived high-pass g), the
// padding layout, and with it the flat band layout. A Plan carries no mutable state,
// so any number of goroutines and transforms may use one concurrently;
// per-call buffers live in Scratch. PlanFor memoizes plans per
// (dim, wavelet, levels), so a fleet of nodes that share a model shape share
// one filter bank instead of rebuilding them per node.
type Plan struct {
	wavelet Wavelet
	g       []float64 // cached high-pass filter (Wavelet.G allocates)
	n       int       // original input length
	padded  int       // padded length (multiple of 2^levels)
	levels  int
}

// planKey identifies a memoized plan. Wavelets are compared by name first and
// by filter taps on lookup, so a caller-constructed wavelet that reuses a
// registered name with different coefficients gets a private, uncached plan
// rather than a stale hit.
type planKey struct {
	n      int
	levels int
	name   string
}

var planCache sync.Map // planKey -> *Plan

// PlanFor returns the memoized plan for input length n under the given
// wavelet and decomposition depth, building and caching it on first use.
func PlanFor(n int, w Wavelet, levels int) (*Plan, error) {
	key := planKey{n: n, levels: levels, name: w.Name}
	if v, ok := planCache.Load(key); ok {
		p := v.(*Plan)
		if sameFilter(p.wavelet.H, w.H) {
			return p, nil
		}
		// Name collision with different taps: build privately, don't cache.
		return newPlan(n, w, levels)
	}
	p, err := newPlan(n, w, levels)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(key, p)
	return v.(*Plan), nil
}

func sameFilter(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newPlan(n int, w Wavelet, levels int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dwt: input length must be positive, got %d", n)
	}
	if levels <= 0 {
		return nil, fmt.Errorf("dwt: levels must be positive, got %d", levels)
	}
	if len(w.H) == 0 {
		return nil, fmt.Errorf("dwt: wavelet has no filter coefficients")
	}
	block := 1 << uint(levels)
	padded := ((n + block - 1) / block) * block
	// Keep the coarsest band at least as long as half the filter so the
	// periodized convolution wraps at most once per tap in the common case.
	for padded>>uint(levels) < 2 {
		padded += block
	}
	return &Plan{
		wavelet: w,
		g:       w.G(),
		n:       n,
		padded:  padded,
		levels:  levels,
	}, nil
}

// CoeffLen returns the flat coefficient vector length (the padded length).
func (p *Plan) CoeffLen() int { return p.padded }

// Levels returns the number of decomposition levels.
func (p *Plan) Levels() int { return p.levels }

// Wavelet returns the plan's wavelet.
func (p *Plan) Wavelet() Wavelet { return p.wavelet }

// detailSlot returns the cD_lvl slice inside a flat coefficient vector laid
// out as [cA_L | cD_L | cD_{L-1} | ... | cD_1]. Level lvl's detail band is
// padded>>lvl long, and the bands before it (cA_L and cD_L down to
// cD_{lvl+1}) sum to the same length, so it starts there.
func (p *Plan) detailSlot(flat []float64, lvl int) []float64 {
	return flat[p.padded>>lvl : p.padded>>(lvl-1)]
}

// Scratch holds the reusable ping-pong buffers a plan's transforms run in.
// Buffers grow lazily on first use, so holding a Scratch costs nothing until
// a transform actually runs, and may be handed from plan to plan of any
// size: every transform writes what it reads, padding included. A Scratch
// serializes the transforms that run in it and is therefore NOT safe for
// concurrent use; one running call (or one Transformer) owns it at a time.
type Scratch struct {
	a, b []float64
}

func (s *Scratch) ensure(padded int) {
	if len(s.a) < padded {
		s.a = make([]float64, padded)
		s.b = make([]float64, padded)
	}
}

// Forward computes the multi-level DWT of x into out using s for scratch.
// len(x) must equal the plan's input length and len(out) must equal CoeffLen.
func (p *Plan) Forward(x, out []float64, s *Scratch) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dwt: Forward input length %d, want %d", len(x), p.n))
	}
	if len(out) != p.padded {
		panic(fmt.Sprintf("dwt: Forward output length %d, want %d", len(out), p.padded))
	}
	s.ensure(p.padded)
	// When the input needs no padding the first level reads x directly —
	// identical values, one less full-vector copy. Otherwise stage the
	// zero-padded copy in scratch.
	cur, next := x, s.a
	if p.padded != p.n {
		buf := s.a[:p.padded]
		copy(buf, x)
		for i := p.n; i < p.padded; i++ {
			buf[i] = 0
		}
		cur, next = buf, s.b
	}
	curLen := p.padded
	// Details are emitted from finest (cD1, at the tail of out) to coarsest;
	// the shrinking approximation ping-pongs between the two scratch buffers
	// instead of copying back each level.
	for lvl := 1; lvl <= p.levels; lvl++ {
		half := curLen / 2
		approx := next[:half]
		detail := p.detailSlot(out, lvl)
		analyzeLevel(cur[:curLen], p.wavelet.H, p.g, approx, detail)
		if lvl == 1 && p.padded == p.n {
			cur, next = next, s.b // never write back into the caller's x
		} else {
			cur, next = next, cur
		}
		curLen = half
	}
	copy(out[:curLen], cur[:curLen]) // cA_L
}

// Inverse reconstructs the signal from coeffs into out using s for scratch.
// len(coeffs) must equal CoeffLen and len(out) must equal the input length.
func (p *Plan) Inverse(coeffs, out []float64, s *Scratch) {
	if len(coeffs) != p.padded {
		panic(fmt.Sprintf("dwt: Inverse input length %d, want %d", len(coeffs), p.padded))
	}
	if len(out) != p.n {
		panic(fmt.Sprintf("dwt: Inverse output length %d, want %d", len(out), p.n))
	}
	s.ensure(p.padded)
	coarse := p.padded >> uint(p.levels)
	cur, next := s.a, s.b
	copy(cur[:coarse], coeffs[:coarse]) // cA_L
	curLen := coarse
	for lvl := p.levels; lvl >= 1; lvl-- {
		detail := p.detailSlot(coeffs, lvl)
		synthesizeLevel(cur[:curLen], detail, p.wavelet.H, p.g, next[:2*curLen])
		cur, next = next, cur
		curLen *= 2
	}
	copy(out, cur[:p.n])
}

// analyzeLevel is the plan-path analysis kernel: the wrap-free main region is
// split from the wrapped tail so the hot loop carries no index branches, with
// the 4-tap bank (sym2/db2, the paper's default) fully unrolled. Each output
// accumulates its taps in exactly the reference order of
// AnalyzePeriodicFilters — `a += h[k]*xv` then `d += g[k]*xv`, k ascending —
// so results are bit-identical on every platform (including those that fuse
// multiply-add).
func analyzeLevel(x, h, g []float64, approx, detail []float64) {
	if len(h) > len(x) {
		// Filter longer than the (coarse) signal: taps wrap more than once;
		// keep the reference full-modulo kernel.
		AnalyzePeriodicFilters(x, h, g, approx, detail)
		return
	}
	if len(h) == 4 {
		analyze4(x, h, g, approx, detail)
		return
	}
	analyzeGeneric(x, h, g, approx, detail)
}

// analyze4 is analyzeGeneric specialized for 4-tap filters: taps live in
// registers and the main region retires two outputs per iteration, exposing
// four independent accumulator chains to the out-of-order core (the serial
// a/d add chains, not loop overhead, bound the reference kernel). Where the
// CPU has AVX2, analyzeLanes takes the main region four outputs at a time
// first, each lane running this same chain.
func analyze4(x, h, g []float64, approx, detail []float64) {
	n := len(x)
	half := n / 2
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	main := (n-4)/2 + 1 // outputs whose 4-tap window never wraps
	i := analyzeLanes(x, h, g, approx, detail, main)
	for ; i+1 < main; i += 2 {
		xs := x[2*i : 2*i+6]
		x0, x1, x2, x3, x4, x5 := xs[0], xs[1], xs[2], xs[3], xs[4], xs[5]
		var a0, d0, a1, d1 float64
		a0 += h0 * x0
		d0 += g0 * x0
		a0 += h1 * x1
		d0 += g1 * x1
		a0 += h2 * x2
		d0 += g2 * x2
		a0 += h3 * x3
		d0 += g3 * x3
		a1 += h0 * x2
		d1 += g0 * x2
		a1 += h1 * x3
		d1 += g1 * x3
		a1 += h2 * x4
		d1 += g2 * x4
		a1 += h3 * x5
		d1 += g3 * x5
		approx[i] = a0
		detail[i] = d0
		approx[i+1] = a1
		detail[i+1] = d1
	}
	for ; i < main; i++ {
		xs := x[2*i : 2*i+4]
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		var a, d float64
		a += h0 * x0
		d += g0 * x0
		a += h1 * x1
		d += g1 * x1
		a += h2 * x2
		d += g2 * x2
		a += h3 * x3
		d += g3 * x3
		approx[i] = a
		detail[i] = d
	}
	analyzeWrapped(x, h, g, approx, detail, main, half)
}

// analyzeGeneric handles arbitrary even tap counts with the same main/tail
// split; the main loop indexes a window sub-slice so bounds checks vanish.
func analyzeGeneric(x, h, g []float64, approx, detail []float64) {
	n := len(x)
	half := n / 2
	l := len(h)
	g = g[:l]
	main := (n-l)/2 + 1
	for i := 0; i < main; i++ {
		xs := x[2*i : 2*i+l]
		var a, d float64
		for k := 0; k < l; k++ {
			xv := xs[k]
			a += h[k] * xv
			d += g[k] * xv
		}
		approx[i] = a
		detail[i] = d
	}
	analyzeWrapped(x, h, g, approx, detail, main, half)
}

// analyzeWrapped computes the outputs whose filter window wraps past the end
// of the signal — at most len(h)/2-1 of them. A single subtraction folds the
// index because callers guarantee len(h) <= len(x).
func analyzeWrapped(x, h, g []float64, approx, detail []float64, from, to int) {
	n := len(x)
	l := len(h)
	g = g[:l]
	for i := from; i < to; i++ {
		base := 2 * i
		var a, d float64
		for k := 0; k < l; k++ {
			j := base + k
			if j >= n {
				j -= n
			}
			xv := x[j]
			a += h[k] * xv
			d += g[k] * xv
		}
		approx[i] = a
		detail[i] = d
	}
}

// synthesizeLevel mirrors analyzeLevel for reconstruction. The scatter order
// into x — outputs i ascending, taps k ascending — matches
// SynthesizePeriodicFilters exactly, which matters because consecutive
// outputs accumulate into overlapping slots.
func synthesizeLevel(approx, detail, h, g []float64, x []float64) {
	if len(h) > len(x) {
		SynthesizePeriodicFilters(approx, detail, h, g, x)
		return
	}
	if len(h) == 4 {
		synthesize4(approx, detail, h, g, x)
		return
	}
	synthesizeGeneric(approx, detail, h, g, x)
}

// synthesize4 is the 4-tap scatter turned into a gather, so every output is
// written once and nothing is zeroed first. With pk(i) = hk·a[i] + gk·d[i],
// the scatter adds p2(i−1) and then p0(i) to x[2i] (p3 and p1 to x[2i+1]),
// starting from +0; x[0] and x[1] get p0(0) and p1(0) first and the wrapped
// last output's p2 and p3 second. The gather adds the same terms in the same
// order. Where the CPU has AVX2, synthesizeLanes takes the interior four
// output pairs at a time first, each lane running this same chain.
func synthesize4(approx, detail, h, g []float64, x []float64) {
	half := len(approx)
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	detail, x = detail[:half], x[:2*half]
	a0, d0, al, dl := approx[0], detail[0], approx[half-1], detail[half-1]
	var x0, x1 float64
	x0 += h0*a0 + g0*d0
	x0 += h2*al + g2*dl
	x1 += h1*a0 + g1*d0
	x1 += h3*al + g3*dl
	x[0], x[1] = x0, x1
	for i := 1 + synthesizeLanes(approx, detail, h, g, x); i < half; i++ {
		ap, dp, a, d := approx[i-1], detail[i-1], approx[i], detail[i]
		var e, o float64
		e += h2*ap + g2*dp
		e += h0*a + g0*d
		o += h3*ap + g3*dp
		o += h1*a + g1*d
		x[2*i], x[2*i+1] = e, o
	}
}

func synthesizeGeneric(approx, detail, h, g []float64, x []float64) {
	half := len(approx)
	n := 2 * half
	l := len(h)
	g = g[:l]
	for i := range x {
		x[i] = 0
	}
	main := (n-l)/2 + 1
	for i := 0; i < main; i++ {
		a, d := approx[i], detail[i]
		xs := x[2*i : 2*i+l]
		for k := 0; k < l; k++ {
			xs[k] += h[k]*a + g[k]*d
		}
	}
	synthesizeWrapped(approx, detail, h, g, x, main, half)
}

func synthesizeWrapped(approx, detail, h, g []float64, x []float64, from, to int) {
	n := len(x)
	l := len(h)
	g = g[:l]
	for i := from; i < to; i++ {
		a, d := approx[i], detail[i]
		base := 2 * i
		for k := 0; k < l; k++ {
			j := base + k
			if j >= n {
				j -= n
			}
			x[j] += h[k]*a + g[k]*d
		}
	}
}
