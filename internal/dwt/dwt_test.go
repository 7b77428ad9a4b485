package dwt

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

const tol = 1e-9

// waveletNames returns the registered wavelet names (unordered).
func waveletNames() []string {
	out := make([]string, 0, len(wavelets))
	for n := range wavelets {
		out = append(out, n)
	}
	return out
}

// AnalyzePeriodic is AnalyzePeriodicFilters with w's filters: one level of
// periodized analysis of x into approx and detail, each of length len(x)/2.
func AnalyzePeriodic(x []float64, w Wavelet, approx, detail []float64) {
	AnalyzePeriodicFilters(x, w.H, w.G(), approx, detail)
}

// SynthesizePeriodic is SynthesizePeriodicFilters with w's filters: it
// inverts AnalyzePeriodic into x, of length 2*len(approx).
func SynthesizePeriodic(approx, detail []float64, w Wavelet, x []float64) {
	SynthesizePeriodicFilters(approx, detail, w.H, w.G(), x)
}

// TestFilterOrthonormality checks the two algebraic properties perfect
// reconstruction depends on: unit energy and shift-2 orthogonality of the
// scaling filter, plus cross-orthogonality with the derived wavelet filter.
func TestFilterOrthonormality(t *testing.T) {
	for _, name := range waveletNames() {
		w := MustByName(name)
		h, g := w.H, w.G()
		if s := sumSq(h); math.Abs(s-1) > tol {
			t.Errorf("%s: sum(h^2) = %v, want 1", name, s)
		}
		if s := sum(h); math.Abs(s-math.Sqrt2) > 1e-7 {
			t.Errorf("%s: sum(h) = %v, want sqrt(2)", name, s)
		}
		for m := 1; 2*m < len(h); m++ {
			var dot float64
			for k := 0; k+2*m < len(h); k++ {
				dot += h[k] * h[k+2*m]
			}
			if math.Abs(dot) > tol {
				t.Errorf("%s: shift-%d self inner product %v, want 0", name, 2*m, dot)
			}
		}
		for m := -len(h) / 2; m <= len(h)/2; m++ {
			var dot float64
			for k := 0; k < len(h); k++ {
				j := k + 2*m
				if j >= 0 && j < len(g) {
					dot += h[k] * g[j]
				}
			}
			if math.Abs(dot) > tol {
				t.Errorf("%s: h/g shift-%d inner product %v, want 0", name, 2*m, dot)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown wavelet")
	}
}

func TestSingleLevelPerfectReconstruction(t *testing.T) {
	rng := vec.NewRNG(11)
	for _, name := range waveletNames() {
		w := MustByName(name)
		for _, n := range []int{2, 4, 8, 16, 34, 128, 1000} {
			x := randVec(rng, n)
			a := make([]float64, n/2)
			d := make([]float64, n/2)
			AnalyzePeriodic(x, w, a, d)
			y := make([]float64, n)
			SynthesizePeriodic(a, d, w, y)
			if mse := vec.MSE(x, y); mse > tol {
				t.Errorf("%s n=%d: reconstruction MSE %v", name, n, mse)
			}
		}
	}
}

func TestSingleLevelEnergyPreservation(t *testing.T) {
	rng := vec.NewRNG(12)
	w := MustByName("sym2")
	x := randVec(rng, 256)
	a := make([]float64, 128)
	d := make([]float64, 128)
	AnalyzePeriodic(x, w, a, d)
	energy := func(v []float64) (e float64) {
		for _, x := range v {
			e += x * x
		}
		return e
	}
	in, out := energy(x), energy(a)+energy(d)
	if math.Abs(in-out) > tol*in {
		t.Fatalf("energy not preserved: in %v out %v", in, out)
	}
}

func TestTransformerRoundTrip(t *testing.T) {
	rng := vec.NewRNG(13)
	for _, name := range []string{"haar", "db2", "sym2", "db3", "db4", "sym4"} {
		w := MustByName(name)
		for _, n := range []int{1, 2, 5, 16, 100, 1023, 4096, 21357} {
			for _, levels := range []int{1, 2, 4} {
				tr, err := NewTransformer(n, w, levels)
				if err != nil {
					t.Fatalf("%s n=%d L=%d: %v", name, n, levels, err)
				}
				x := randVec(rng, n)
				coeffs := make([]float64, tr.CoeffLen())
				tr.Forward(x, coeffs)
				y := make([]float64, n)
				tr.Inverse(coeffs, y)
				if mse := vec.MSE(x, y); mse > tol {
					t.Errorf("%s n=%d L=%d: round-trip MSE %v", name, n, levels, mse)
				}
			}
		}
	}
}

// testBand is one sub-band of the flat coefficient layout.
type testBand struct {
	name     string
	off, len int
}

// layoutOf derives p's flat layout [cA_L | cD_L | cD_{L-1} | ... | cD_1] by
// halving the padded length once per level and laying the bands end to end,
// independently of the closed form detailSlot uses.
func layoutOf(p *Plan) []testBand {
	levels := p.Levels()
	lens := make([]int, levels) // lens[i] = detail length of level i+1
	cur := p.CoeffLen()
	for lvl := 1; lvl <= levels; lvl++ {
		cur /= 2
		lens[lvl-1] = cur
	}
	out := []testBand{{fmt.Sprintf("cA%d", levels), 0, lens[levels-1]}}
	off := lens[levels-1]
	for lvl := levels; lvl >= 1; lvl-- {
		out = append(out, testBand{fmt.Sprintf("cD%d", lvl), off, lens[lvl-1]})
		off += lens[lvl-1]
	}
	return out
}

func TestTransformerBandsLayout(t *testing.T) {
	tr, err := NewTransformer(4096, MustByName("sym2"), 4)
	if err != nil {
		t.Fatal(err)
	}
	bands := layoutOf(tr.plan)
	wantNames := []string{"cA4", "cD4", "cD3", "cD2", "cD1"}
	if len(bands) != len(wantNames) {
		t.Fatalf("want %d bands, got %d", len(wantNames), len(bands))
	}
	// For n = 4096, L=4: cA4 = cD4 = 256, cD3 = 512, cD2 = 1024, cD1 = 2048.
	wantLens := []int{256, 256, 512, 1024, 2048}
	total := 0
	for i, b := range bands {
		if b.name != wantNames[i] || b.len != wantLens[i] {
			t.Errorf("band %d is %s of %d, want %s of %d", i, b.name, b.len, wantNames[i], wantLens[i])
		}
		total += b.len
	}
	if total != tr.CoeffLen() {
		t.Fatalf("bands sum %d != CoeffLen %d", total, tr.CoeffLen())
	}
	// The transforms find each detail band where the layout puts it.
	flat := make([]float64, tr.CoeffLen())
	for lvl := 1; lvl <= 4; lvl++ {
		b := bands[4-lvl+1]
		got := tr.plan.detailSlot(flat, lvl)
		if len(got) != b.len || &got[0] != &flat[b.off] {
			t.Errorf("detailSlot(%d) is %d long at offset %d, want %s: %d at %d",
				lvl, len(got), cap(flat)-cap(got), b.name, b.len, b.off)
		}
	}
}

// TestEnergyCompaction verifies the property JWINS relies on: for a smooth
// signal, the wavelet domain concentrates energy into far fewer coefficients
// than the parameter domain, so a TopK-sparsified wavelet vector reconstructs
// with much lower error than a TopK-sparsified raw vector.
func TestEnergyCompaction(t *testing.T) {
	n := 4096
	x := make([]float64, n)
	for i := range x {
		u := float64(i) / float64(n)
		x[i] = math.Sin(2*math.Pi*3*u) + 0.5*math.Cos(2*math.Pi*7*u)
	}
	tr, err := NewTransformer(n, MustByName("sym2"), 4)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := make([]float64, tr.CoeffLen())
	tr.Forward(x, coeffs)

	keep := n / 10 // 10% budget, as in the paper's Figure 2 setup
	waveletMSE := sparsifyReconstructMSE(tr, coeffs, keep, x)

	id := Identity{N: n}
	rawCoeffs := make([]float64, n)
	id.Forward(x, rawCoeffs)
	rawMSE := sparsifyReconstructMSE(id, rawCoeffs, keep, x)

	if waveletMSE >= rawMSE {
		t.Fatalf("wavelet sparsification MSE %v not better than raw %v", waveletMSE, rawMSE)
	}
	if waveletMSE > rawMSE/10 {
		t.Logf("note: wavelet MSE %v vs raw %v (expected large gap on smooth signals)", waveletMSE, rawMSE)
	}
}

func sparsifyReconstructMSE(tr Transform, coeffs []float64, keep int, orig []float64) float64 {
	sparse := make([]float64, len(coeffs))
	// Keep the `keep` largest-magnitude coefficients.
	idx := topKAbs(coeffs, keep)
	for _, i := range idx {
		sparse[i] = coeffs[i]
	}
	out := make([]float64, len(orig))
	tr.Inverse(sparse, out)
	return vec.MSE(orig, out)
}

// topKAbs is a small O(n*k) helper adequate for tests.
func topKAbs(v []float64, k int) []int {
	picked := make([]bool, len(v))
	out := make([]int, 0, k)
	for j := 0; j < k; j++ {
		best, bestAbs := -1, -1.0
		for i, x := range v {
			if picked[i] {
				continue
			}
			if a := math.Abs(x); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if best < 0 {
			break
		}
		picked[best] = true
		out = append(out, best)
	}
	return out
}

func TestIdentityTransform(t *testing.T) {
	id := Identity{N: 5}
	x := []float64{1, 2, 3, 4, 5}
	out := make([]float64, 5)
	id.Forward(x, out)
	back := make([]float64, 5)
	id.Inverse(out, back)
	for i := range x {
		if back[i] != x[i] {
			t.Fatalf("identity round trip: %v", back)
		}
	}
}

func TestNewTransformerErrors(t *testing.T) {
	w := MustByName("sym2")
	if _, err := NewTransformer(0, w, 4); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := NewTransformer(10, w, 0); err == nil {
		t.Error("expected error for levels=0")
	}
	if _, err := NewTransformer(10, Wavelet{}, 1); err == nil {
		t.Error("expected error for empty wavelet")
	}
}

// TestQuickRoundTrip property-tests perfect reconstruction over random
// lengths and contents.
func TestQuickRoundTrip(t *testing.T) {
	w := MustByName("sym2")
	f := func(seed uint64, rawN uint16) bool {
		n := int(rawN)%5000 + 1
		x := make([]float64, n)
		r := vec.NewRNG(seed)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		tr, err := NewTransformer(n, w, 4)
		if err != nil {
			return false
		}
		coeffs := make([]float64, tr.CoeffLen())
		tr.Forward(x, coeffs)
		y := make([]float64, n)
		tr.Inverse(coeffs, y)
		return vec.MSE(x, y) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randVec(r *vec.RNG, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

func sumSq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}
