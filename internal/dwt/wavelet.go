// Package dwt implements the 1-D discrete wavelet transform used by JWINS to
// rank, share, and average model parameters in the wavelet-frequency domain.
//
// The transform is the periodized orthogonal DWT: for an even-length signal,
// analysis rows are circular shifts (by 2) of the scaling filter h and the
// wavelet filter g, which form an orthonormal basis, so reconstruction is
// exact to floating-point precision. Multi-level decomposition recursively
// transforms the approximation band, mirroring PyWavelets' wavedec with the
// "periodization" mode: the flat coefficient vector has exactly the length of
// the (padded) input, laid out as [cA_L | cD_L | cD_{L-1} | ... | cD_1].
package dwt

import (
	"fmt"
	"math"
)

// Wavelet is an orthogonal wavelet described by its scaling (low-pass)
// synthesis filter. The wavelet (high-pass) filter is derived by the
// alternating-flip construction, which preserves orthonormality.
type Wavelet struct {
	Name string
	// H is the scaling filter; sum(H) = sqrt(2) and sum(H^2) = 1.
	H []float64
}

// G returns the wavelet (high-pass) filter derived from the scaling filter by
// alternating flip: g[k] = (-1)^k * h[L-1-k].
func (w Wavelet) G() []float64 {
	l := len(w.H)
	g := make([]float64, l)
	for k := 0; k < l; k++ {
		v := w.H[l-1-k]
		if k%2 == 1 {
			v = -v
		}
		g[k] = v
	}
	return g
}

var (
	sqrt2 = math.Sqrt(2)
	// Daubechies scaling filters (standard published coefficients).
	haarH = []float64{1 / sqrt2, 1 / sqrt2}
	db2H  = []float64{
		0.48296291314469025, 0.836516303737469,
		0.22414386804185735, -0.12940952255092145,
	}
	db3H = []float64{
		0.3326705529509569, 0.8068915093133388, 0.4598775021193313,
		-0.13501102001039084, -0.08544127388224149, 0.035226291882100656,
	}
	db4H = []float64{
		0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
		-0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
		0.032883011666982945, -0.010597401784997278,
	}
	// Symlet-4 ("least asymmetric" Daubechies of order 4). Note sym2 and sym3
	// are coefficient-identical to db2 and db3.
	sym4H = []float64{
		-0.07576571478927333, -0.02963552764599851, 0.49761866763201545,
		0.8037387518059161, 0.29785779560527736, -0.09921954357684722,
		-0.012603967262037833, 0.0322231006040427,
	}
)

// wavelets is the registry of supported wavelet names.
var wavelets = map[string][]float64{
	"haar": haarH,
	"db1":  haarH,
	"db2":  db2H,
	"db3":  db3H,
	"db4":  db4H,
	"sym2": db2H, // sym2 == db2
	"sym3": db3H, // sym3 == db3
	"sym4": sym4H,
}

// ByName returns the wavelet registered under name.
// Supported names: haar, db1..db4, sym2..sym4.
func ByName(name string) (Wavelet, error) {
	h, ok := wavelets[name]
	if !ok {
		return Wavelet{}, fmt.Errorf("dwt: unknown wavelet %q", name)
	}
	return Wavelet{Name: name, H: h}, nil
}

// MustByName is ByName for statically known names; it panics on error.
func MustByName(name string) Wavelet {
	w, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// AnalyzePeriodicFilters performs one level of periodized analysis of the
// even-length signal x into approx and detail bands, each of length len(x)/2,
// with the scaling filter h and the wavelet filter g. g is passed in rather
// than derived, so per-round transforms on cached filters stay allocation
// free (Wavelet.G allocates on every call).
func AnalyzePeriodicFilters(x, h, g []float64, approx, detail []float64) {
	n := len(x)
	if n%2 != 0 {
		panic("dwt: AnalyzePeriodicFilters requires an even-length signal")
	}
	half := n / 2
	if len(approx) != half || len(detail) != half {
		panic("dwt: output band length must be len(x)/2")
	}
	l := len(h)
	for i := 0; i < half; i++ {
		var a, d float64
		base := 2 * i
		for k := 0; k < l; k++ {
			j := base + k
			if j >= n {
				j -= n
				if j >= n { // filter longer than signal: full modulo
					j %= n
				}
			}
			xv := x[j]
			a += h[k] * xv
			d += g[k] * xv
		}
		approx[i] = a
		detail[i] = d
	}
}

// SynthesizePeriodicFilters inverts AnalyzePeriodicFilters: it reconstructs
// the even-length signal x from the approx and detail bands. x must have
// length 2*len(approx); it is overwritten.
func SynthesizePeriodicFilters(approx, detail, h, g []float64, x []float64) {
	half := len(approx)
	if len(detail) != half {
		panic("dwt: approx/detail length mismatch")
	}
	n := 2 * half
	if len(x) != n {
		panic("dwt: output length must be 2*len(approx)")
	}
	l := len(h)
	for i := range x {
		x[i] = 0
	}
	for i := 0; i < half; i++ {
		a, d := approx[i], detail[i]
		base := 2 * i
		for k := 0; k < l; k++ {
			j := base + k
			if j >= n {
				j -= n
				if j >= n {
					j %= n
				}
			}
			x[j] += h[k]*a + g[k]*d
		}
	}
}
