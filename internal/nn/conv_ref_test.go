package nn

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/vec"
)

// refConv2D is the oracle for the convolution kernels: a layer over the same
// parameters and scratch buffers as the Conv2D it wraps, whose Forward and
// Backward are the loops Conv2D had before the kernels in conv.go replaced
// them, kept verbatim (one serial sum per pixel, every tap range-tested).
// The differential tests require the kernels to match it bit for bit; the
// benchmarks use it as the within-run baseline.
type refConv2D struct{ *Conv2D }

var _ Layer = refConv2D{}

func (c refConv2D) Forward(x *Tensor, _ bool) *Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [N, %d, H, W], got %v", c.InC, x.Shape))
	}
	own(&c.convState).x = x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.OutSize(h), c.OutSize(w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D output size %dx%d not positive", oh, ow))
	}
	y := c.out.ensureZero(n, c.OutC, oh, ow)
	k := c.K
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			bias := c.B.Data[oc]
			out := y.Data[((ni*c.OutC)+oc)*oh*ow:][: oh*ow : oh*ow]
			for ic := 0; ic < c.InC; ic++ {
				in := x.Data[((ni*c.InC)+ic)*h*w:][: h*w : h*w]
				ker := c.W.Data[((oc*c.InC)+ic)*k*k:][: k*k : k*k]
				for oy := 0; oy < oh; oy++ {
					iy0 := oy - c.Pad
					for ox := 0; ox < ow; ox++ {
						ix0 := ox - c.Pad
						var s float64
						for ky := 0; ky < k; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							rowIn := in[iy*w:]
							rowK := ker[ky*k:]
							for kx := 0; kx < k; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								s += rowIn[ix] * rowK[kx]
							}
						}
						out[oy*ow+ox] += s
					}
				}
			}
			if bias != 0 {
				for i := range out {
					out[i] += bias
				}
			}
		}
	}
	return y
}

func (c refConv2D) Backward(grad *Tensor) *Tensor {
	x := c.x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := grad.Shape[2], grad.Shape[3]
	k := c.K
	dx := c.dx.ensureZero(n, c.InC, h, w)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := grad.Data[((ni*c.OutC)+oc)*oh*ow:][: oh*ow : oh*ow]
			for i := range g {
				c.B.Grad[oc] += g[i]
			}
			for ic := 0; ic < c.InC; ic++ {
				in := x.Data[((ni*c.InC)+ic)*h*w:][: h*w : h*w]
				dIn := dx.Data[((ni*c.InC)+ic)*h*w:][: h*w : h*w]
				ker := c.W.Data[((oc*c.InC)+ic)*k*k:][: k*k : k*k]
				dKer := c.W.Grad[((oc*c.InC)+ic)*k*k:][: k*k : k*k]
				for oy := 0; oy < oh; oy++ {
					iy0 := oy - c.Pad
					for ox := 0; ox < ow; ox++ {
						gv := g[oy*ow+ox]
						if gv == 0 {
							continue
						}
						ix0 := ox - c.Pad
						for ky := 0; ky < k; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								dKer[ky*k+kx] += gv * in[iy*w+ix]
								dIn[iy*w+ix] += gv * ker[ky*k+kx]
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// convCase is one differential comparison: a layer shape, an input shape and
// the seed everything else is drawn from.
type convCase struct {
	inC, outC, k, pad int
	n, h, w           int
	seed              uint64
	// nonFinite plants a NaN and an Inf in both the weights and the input.
	nonFinite bool
	// edges plants -0, Inf and NaN in the corner pixels and border columns of
	// every input plane, where the vector path runs its partial-window tiles.
	edges bool
	// denseGrad leaves no exact zero in the output gradient (the vector path
	// then runs its loop without the per-lane skip); zeroPlanes makes whole
	// gradient planes ±0, some lanes of a quad and not others, and all of the
	// last sample. Otherwise one gradient in eight is a zero of either sign.
	denseGrad, zeroPlanes bool
}

// fillGrad draws the output gradient of a case: n·outC planes.
func (cc convCase) fillGrad(grad []float64, rng *vec.RNG) {
	fillSigned(grad, rng)
	planes := cc.n * cc.outC
	ohw := len(grad) / planes
	for p := 0; p < planes; p++ {
		for i := range grad[p*ohw:][:ohw] {
			switch at := p*ohw + i; {
			case cc.denseGrad && grad[at] == 0:
				grad[at] = 0.5
			case cc.zeroPlanes && (p%2 == 1 || p >= planes-cc.outC):
				grad[at] = math.Copysign(0, float64(1-2*(i%2)))
			}
		}
	}
}

// plantEdges overwrites each h×w plane's four corners and the middle of its
// first and last column with -0, ±Inf and NaN, rotating from plane to plane.
func plantEdges(x []float64, h, w int) {
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.NaN(), math.Copysign(0, -1), math.Inf(-1)}
	at := []int{0, w - 1, (h - 1) * w, h*w - 1, h / 2 * w, h/2*w + w - 1}
	for p := 0; p*h*w < len(x); p++ {
		for i, off := range at {
			x[p*h*w+off] = special[(p+i)%len(special)]
		}
	}
}

// forEachConvPath runs fn as a "vector" and a "portable" subtest: the first
// with the 4-lane path of Forward and Backward on (skipped where the CPU or
// the build has none), the second with it off, so both answer to the same
// oracle.
func forEachConvPath(t *testing.T, fn func(t *testing.T)) {
	defer setVectorPath(cpuAVX2)
	for _, path := range []string{"vector", "portable"} {
		path := path
		t.Run(path, func(t *testing.T) {
			if path == "vector" && !cpuAVX2 {
				t.Skip("no AVX2 path on this CPU or in this build")
			}
			setVectorPath(path == "vector")
			fn(t)
		})
	}
}

// TestConvPath: what a run prints about its kernels is what it runs.
func TestConvPath(t *testing.T) {
	forEachConvPath(t, func(t *testing.T) {
		want := "portable"
		if strings.HasSuffix(t.Name(), "/vector") {
			want = "avx2"
		}
		if got := ConvPath(); got != want {
			t.Fatalf("ConvPath() = %q, want %q", got, want)
		}
	})
}

func (cc convCase) String() string {
	return fmt.Sprintf("%d->%d_k%d_p%d_n%d_%dx%d_seed%d", cc.inC, cc.outC, cc.k, cc.pad, cc.n, cc.h, cc.w, cc.seed)
}

// valid reports whether the case has a positive output size.
func (cc convCase) valid() bool {
	return cc.h+2*cc.pad-cc.k+1 > 0 && cc.w+2*cc.pad-cc.k+1 > 0
}

// signedValue draws from (-1, 1), with an exact zero of either sign one time
// in eight: the backward sparsity skip, and the additions whose result
// depends on the sign of a zero, have to be exercised.
func signedValue(rng *vec.RNG) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return 2*rng.Float64() - 1
}

// fillNormal fills dst with standard normal draws.
func fillNormal(dst []float64, rng *vec.RNG) {
	for i := range dst {
		dst[i] = rng.NormFloat64()
	}
}

func fillSigned(dst []float64, rng *vec.RNG) {
	for i := range dst {
		dst[i] = signedValue(rng)
	}
}

// firstBitDiff returns the first index at which a and b differ as bit patterns
// (so zero signs count), or -1 when they are identical. Two NaNs count as
// equal whatever their sign and payload: when both operands of an addition
// are NaN, the hardware keeps the payload of whichever the compiler placed
// first, which neither IEEE 754 nor Go pins down, so the reference and the
// kernels may legitimately surface different NaNs of a diverged model.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// twinConv returns a layer of c's shape over copies of its parameters and
// gradients, with scratch of its own.
func twinConv(c *Conv2D) *Conv2D {
	return &Conv2D{InC: c.InC, OutC: c.OutC, K: c.K, Pad: c.Pad,
		W: &Param{Data: append([]float64(nil), c.W.Data...), Grad: append([]float64(nil), c.W.grads()...)},
		B: &Param{Data: append([]float64(nil), c.B.Data...), Grad: append([]float64(nil), c.B.grads()...)},
	}
}

// checkConvParity runs two forward+backward passes through the kernels and
// through the reference on identical state and compares y, dx, W.Grad and
// B.Grad by bit pattern. The gradient accumulators start non-zero (with -0
// among them) and are not cleared between the passes, so accumulation across
// samples and across calls is covered. dx has no such seed to take: every
// call clears it, and the vector path's tile starts from +0 like it. A third
// layer runs the training step's half, backwardParams, to the same W.Grad
// and B.Grad.
func checkConvParity(t testing.TB, cc convCase) {
	t.Helper()
	rng := vec.NewRNG(cc.seed)
	got := NewConv2D(cc.inC, cc.outC, cc.k, cc.pad, rng)
	fillSigned(got.W.Data, rng)
	fillSigned(got.B.Data, rng)
	fillSigned(got.W.grads(), rng)
	fillSigned(got.B.grads(), rng)
	if cc.nonFinite {
		got.W.Data[rng.Intn(len(got.W.Data))] = math.NaN()
		got.W.Data[rng.Intn(len(got.W.Data))] = math.Inf(1)
	}
	want, half := refConv2D{twinConv(got)}, twinConv(got)
	for pass := 0; pass < 2; pass++ {
		x := NewTensor(cc.n, cc.inC, cc.h, cc.w)
		fillSigned(x.Data, rng)
		if cc.nonFinite {
			x.Data[rng.Intn(len(x.Data))] = math.NaN()
			x.Data[rng.Intn(len(x.Data))] = math.Inf(-1)
		}
		if cc.edges {
			plantEdges(x.Data, cc.h, cc.w)
		}
		y, yRef := got.Forward(x, true), want.Forward(x, true)
		if !slices.Equal(y.Shape, yRef.Shape) {
			t.Fatalf("%v pass %d: output shape %v, reference %v", cc, pass, y.Shape, yRef.Shape)
		}
		if i := firstBitDiff(y.Data, yRef.Data); i >= 0 {
			t.Fatalf("%v pass %d: y[%d] = %v, reference %v", cc, pass, i, y.Data[i], yRef.Data[i])
		}
		grad := NewTensor(y.Shape...)
		cc.fillGrad(grad.Data, rng)
		dx, dxRef := got.Backward(grad), want.Backward(grad)
		half.Forward(x, true)
		half.backwardParams(grad)
		if i := firstBitDiff(dx.Data, dxRef.Data); i >= 0 {
			t.Fatalf("%v pass %d: dx[%d] = %v, reference %v", cc, pass, i, dx.Data[i], dxRef.Data[i])
		}
		if i := firstBitDiff(got.W.Grad, want.W.Grad); i >= 0 {
			t.Fatalf("%v pass %d: W.Grad[%d] = %v, reference %v", cc, pass, i, got.W.Grad[i], want.W.Grad[i])
		}
		if i := firstBitDiff(got.B.Grad, want.B.Grad); i >= 0 {
			t.Fatalf("%v pass %d: B.Grad[%d] = %v, reference %v", cc, pass, i, got.B.Grad[i], want.B.Grad[i])
		}
		if i := firstBitDiff(half.W.Grad, want.W.Grad); i >= 0 {
			t.Fatalf("%v pass %d: backwardParams W.Grad[%d] = %v, reference %v", cc, pass, i, half.W.Grad[i], want.W.Grad[i])
		}
		if i := firstBitDiff(half.B.Grad, want.B.Grad); i >= 0 {
			t.Fatalf("%v pass %d: backwardParams B.Grad[%d] = %v, reference %v", cc, pass, i, half.B.Grad[i], want.B.Grad[i])
		}
	}
}

// vectorTileCases reaches every tile class of the vector path (5×5 only).
func vectorTileCases() []convCase {
	var cases []convCase
	// Input channels in quads and as a remainder of one to three, one to
	// three output quads with and without a tail, on a plane with H != W.
	// Backward takes output channels in quads for W.Grad and input channels in
	// quads for dx, so the same sweep covers its tails. One case in three has
	// NaN and ±Inf among weights and inputs, which a zero gradient in one lane
	// of a vector must not meet while its neighbours' do; one in three has no
	// zero gradient; and a second round has gradient planes that are all zero.
	for _, inC := range []int{1, 3, 4, 5, 8, 9} {
		for _, outC := range []int{4, 6, 8, 12} {
			i := len(cases)
			cases = append(cases,
				convCase{inC: inC, outC: outC, k: 5, pad: 2, n: 2, h: 7, w: 9, nonFinite: i%3 == 1, denseGrad: i%3 == 2},
				convCase{inC: inC, outC: outC, k: 5, pad: 2, n: 2, h: 6, w: 5, nonFinite: i%4 == 0, zeroPlanes: true})
		}
	}
	// One to nine interior columns and rows (every tile remainder), every
	// other one with non-finite values in the border columns and corners.
	for w := 5; w <= 13; w++ {
		cases = append(cases, convCase{inC: 5, outC: 4, k: 5, pad: 2, n: 1, h: 18 - w, w: w, edges: w%2 == 0})
	}
	// Planes narrower or lower than the kernel, and every padding from none
	// to windows that lie wholly outside the plane. Their sums must stay +0;
	// the tile starts there, like the output, so no -0 can have been left in
	// it and none needs seeding here.
	for _, hw := range [][2]int{{3, 9}, {9, 3}, {4, 4}, {1, 6}, {6, 7}} {
		for pad := 0; pad <= 6; pad++ {
			cc := convCase{inC: 5, outC: 8, k: 5, pad: pad, n: 1, h: hw[0], w: hw[1], edges: pad != 2, denseGrad: pad%3 == 0}
			if cc.valid() {
				cases = append(cases, cc)
			}
		}
	}
	return cases
}

// TestConv2DMatchesReference holds the kernels to the reference loops over a
// table of edge shapes and over seeded random ones.
func TestConv2DMatchesReference(t *testing.T) {
	cases := []convCase{
		// The shapes the workloads run: cifar and LEAF at Small and Micro.
		{inC: 3, outC: 8, k: 5, pad: 2, n: 2, h: 16, w: 16},
		{inC: 8, outC: 8, k: 5, pad: 2, n: 2, h: 8, w: 8},
		{inC: 1, outC: 8, k: 5, pad: 2, n: 2, h: 16, w: 16},
		{inC: 8, outC: 16, k: 5, pad: 2, n: 1, h: 8, w: 8},
		{inC: 3, outC: 4, k: 5, pad: 2, n: 3, h: 8, w: 8},
		{inC: 4, outC: 4, k: 5, pad: 2, n: 3, h: 2, w: 2},
		// Output-channel tails of one, two and three after a block of four.
		{inC: 2, outC: 5, k: 5, pad: 2, n: 1, h: 9, w: 7},
		{inC: 2, outC: 6, k: 3, pad: 1, n: 1, h: 5, w: 6},
		{inC: 1, outC: 7, k: 5, pad: 1, n: 2, h: 6, w: 10},
		// Planes smaller than the kernel in one or both directions.
		{inC: 2, outC: 4, k: 5, pad: 2, n: 1, h: 3, w: 12},
		{inC: 2, outC: 4, k: 5, pad: 2, n: 1, h: 12, w: 3},
		{inC: 1, outC: 1, k: 7, pad: 3, n: 1, h: 1, w: 1},
		{inC: 1, outC: 4, k: 7, pad: 6, n: 1, h: 2, w: 3},
		// No padding, and padding up to K-1 (windows that hold one pixel).
		{inC: 2, outC: 4, k: 5, pad: 0, n: 2, h: 9, w: 11},
		{inC: 2, outC: 4, k: 5, pad: 4, n: 1, h: 6, w: 5},
		{inC: 3, outC: 3, k: 1, pad: 0, n: 2, h: 4, w: 5},
		{inC: 1, outC: 2, k: 7, pad: 0, n: 1, h: 7, w: 9},
		{inC: 2, outC: 8, k: 7, pad: 2, n: 1, h: 10, w: 12},
		// Padding of K and beyond: windows that lie wholly in the padding.
		{inC: 2, outC: 4, k: 5, pad: 5, n: 1, h: 4, w: 6},
		{inC: 1, outC: 5, k: 5, pad: 7, n: 2, h: 3, w: 2},
		{inC: 2, outC: 2, k: 3, pad: 4, n: 1, h: 3, w: 4},
		// A diverged model: NaN and Inf in weights and inputs.
		{inC: 3, outC: 8, k: 5, pad: 2, n: 2, h: 16, w: 16, nonFinite: true},
		{inC: 2, outC: 3, k: 3, pad: 2, n: 1, h: 4, w: 5, nonFinite: true},
	}
	// Interior runs of every length class: widths 5..12 with K=5, Pad=2 leave
	// 1..8 interior columns, and every Pad from 0 to K-1 shifts the borders.
	for w := 5; w <= 12; w++ {
		cases = append(cases, convCase{inC: 2, outC: 4, k: 5, pad: 2, n: 1, h: 6, w: w})
	}
	for pad := 0; pad < 5; pad++ {
		cases = append(cases, convCase{inC: 1, outC: 5, k: 5, pad: pad, n: 1, h: 7, w: 10})
	}
	cases = append(cases, vectorTileCases()...)
	for i := range cases {
		cases[i].seed = uint64(1000 + i)
	}
	rng := vec.NewRNG(13)
	ks := []int{1, 3, 5, 7}
	for n := len(cases) + 164; len(cases) < n; {
		k := ks[rng.Intn(len(ks))]
		cc := convCase{
			inC: 1 + rng.Intn(8), outC: 1 + rng.Intn(8), k: k, pad: rng.Intn(k),
			n: 1 + rng.Intn(3), h: 1 + rng.Intn(12), w: 1 + rng.Intn(14),
			seed: rng.Uint64(), nonFinite: rng.Intn(10) == 0,
		}
		if cc.valid() {
			cases = append(cases, cc)
		}
	}
	for _, cc := range cases {
		if !cc.valid() {
			t.Fatalf("%v: table case has no output", cc)
		}
	}
	forEachConvPath(t, func(t *testing.T) {
		for _, cc := range cases {
			checkConvParity(t, cc)
		}
	})
}

// FuzzConv2DParity draws the shape from the fuzzer's bytes and everything
// else from its seed, and makes the same comparison.
func FuzzConv2DParity(f *testing.F) {
	f.Add(uint8(3), uint8(8), uint8(2), uint8(2), uint8(2), uint8(16), uint8(16), uint64(1))
	f.Add(uint8(8), uint8(8), uint8(2), uint8(2), uint8(1), uint8(8), uint8(8), uint64(2))
	f.Add(uint8(1), uint8(5), uint8(2), uint8(0), uint8(1), uint8(5), uint8(9), uint64(3))
	f.Add(uint8(2), uint8(7), uint8(3), uint8(6), uint8(3), uint8(2), uint8(3), uint64(4))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(1), uint8(1), uint8(3), uint8(7), uint64(5))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(1), uint64(6))
	f.Add(uint8(3), uint8(6), uint8(2), uint8(4), uint8(2), uint8(6), uint8(5), uint64(0x8000000000000007))
	// Found by the fuzzer: NaNs of different payloads meet in one sum (see firstBitDiff).
	f.Add(uint8(0), uint8(6), uint8(2), uint8(4), uint8(2), uint8(6), uint8(5), uint64(0x8000000000000007))
	// The vector path's tile classes: channel quads with a remainder, output
	// quads with a tail, tile remainders, planes smaller than the kernel,
	// windows wholly in the padding, non-finite border columns and corners.
	f.Add(uint8(4), uint8(7), uint8(2), uint8(2), uint8(1), uint8(8), uint8(10), uint64(8))
	f.Add(uint8(8), uint8(11), uint8(2), uint8(2), uint8(0), uint8(6), uint8(12), uint64(0x4000000000000009))
	f.Add(uint8(2), uint8(5), uint8(2), uint8(5), uint8(0), uint8(2), uint8(8), uint64(0x400000000000000a))
	f.Add(uint8(7), uint8(3), uint8(2), uint8(6), uint8(1), uint8(5), uint8(3), uint64(11))
	f.Add(uint8(0), uint8(7), uint8(2), uint8(0), uint8(2), uint8(17), uint8(6), uint64(0xc00000000000000c))
	// Backward's: a first layer's three channels without a zero gradient, quads
	// on both sides with whole planes of zeros next to non-finite values.
	f.Add(uint8(2), uint8(7), uint8(2), uint8(2), uint8(1), uint8(15), uint8(15), uint64(0x200000000000000d))
	f.Add(uint8(8), uint8(9), uint8(2), uint8(3), uint8(2), uint8(7), uint8(4), uint64(0x900000000000000e))
	f.Fuzz(func(t *testing.T, inC, outC, kSel, pad, n, h, w uint8, seed uint64) {
		k := 1 + 2*int(kSel%4)
		cc := convCase{
			inC: 1 + int(inC%12), outC: 1 + int(outC%12), k: k, pad: int(pad) % (k + 2),
			n: 1 + int(n%3), h: 1 + int(h%18), w: 1 + int(w%18),
			// The top bit of the seed asks for a NaN and an Inf anywhere, the
			// next one for non-finite border columns and corners, the two
			// after it for gradients without a zero and with planes of them.
			seed: seed, nonFinite: seed>>63 == 1, edges: seed>>62&1 == 1,
			denseGrad: seed>>61&1 == 1, zeroPlanes: seed>>60&1 == 1,
		}
		if !cc.valid() {
			t.Skip()
		}
		forEachConvPath(t, func(t *testing.T) { checkConvParity(t, cc) })
	})
}

// referenceTwin builds a classifier and swaps its convolutions for the
// reference loops over the same parameters.
func referenceTwin(build func() *Classifier) *Classifier {
	twin := build()
	for i, l := range twin.Net.Layers {
		if c, ok := l.(*Conv2D); ok {
			twin.Net.Layers[i] = refConv2D{c}
		}
	}
	return twin
}

// TestConvModelsBitStable trains the two convolutional models of the paper's
// image tasks next to twins built on the reference convolution: after twenty
// SGD steps and one evaluation, the losses, the correct counts and every
// parameter have to agree bit for bit.
func TestConvModelsBitStable(t *testing.T) {
	models := []struct {
		name  string
		cfg   ModelConfig
		build func(ModelConfig, *vec.RNG) *Classifier
	}{
		{"gn-lenet/cifar-small", ModelConfig{Channels: 3, Height: 16, Width: 16, Classes: 10, WidthScale: 4}, NewGNLeNet},
		{"leaf-cnn/femnist-small", ModelConfig{Channels: 1, Height: 16, Width: 16, Classes: 26, WidthScale: 4}, NewLEAFCNN},
	}
	for _, m := range models {
		m := m
		t.Run(m.name, func(t *testing.T) {
			forEachConvPath(t, func(t *testing.T) {
				build := func() *Classifier { return m.build(m.cfg, vec.NewRNG(31)) }
				got, want := build(), referenceTwin(build)
				rng := vec.NewRNG(32)
				const batch = 8
				x := NewTensor(batch, m.cfg.Channels, m.cfg.Height, m.cfg.Width)
				y := make([]float64, batch)
				draw := func() {
					fillNormal(x.Data, rng)
					for i := range y {
						y[i] = float64(rng.Intn(m.cfg.Classes))
					}
				}
				for step := 0; step < 20; step++ {
					draw()
					a, b := got.TrainBatch(x, y, 0.05), want.TrainBatch(x, y, 0.05)
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("step %d: loss %v, reference %v", step, a, b)
					}
				}
				draw()
				la, ca, na := got.EvalBatch(x, y)
				lb, cb, nb := want.EvalBatch(x, y)
				if math.Float64bits(la) != math.Float64bits(lb) || ca != cb || na != nb {
					t.Fatalf("eval: loss %v correct %d/%d, reference %v %d/%d", la, ca, na, lb, cb, nb)
				}
				pa, pb := make([]float64, got.ParamCount()), make([]float64, want.ParamCount())
				got.CopyParams(pa)
				want.CopyParams(pb)
				if i := firstBitDiff(pa, pb); i >= 0 {
					t.Fatalf("param %d = %v, reference %v", i, pa[i], pb[i])
				}
			})
		})
	}
}
