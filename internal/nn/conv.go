package nn

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Conv2D is a 2-D convolution over NCHW tensors with stride 1 and symmetric
// zero padding. Kernels are shaped [OutC][InC][KH][KW].
type Conv2D struct {
	InC, OutC int
	K         int // square kernel size
	Pad       int
	W         *Param
	B         *Param

	*convState
}

// convState is a Conv2D's call state.
type convState struct {
	x        *Tensor
	out, dx  tscratch
	pk, tile tscratch // the vector path's packed kernels (Backward: W.Grad) and its lane tile
	kin, dxt tscratch // its kernels packed for dx and dx's lane tile
	runs     laneRuns // its forward runs, for the geometry they were listed for
}

var _ Layer = (*Conv2D)(nil)

func (c *Conv2D) attach(w *workspace) { c.convState = takeState[convState](w) }

// NewConv2D builds a convolution layer with He-uniform initialization.
func NewConv2D(inC, outC, k, pad int, rng *vec.RNG) *Conv2D {
	c := &Conv2D{
		InC:  inC,
		OutC: outC,
		K:    k,
		Pad:  pad,
		W:    newParam(fmt.Sprintf("conv_%dx%dx%d.w", outC, inC, k), outC*inC*k*k),
		B:    newParam(fmt.Sprintf("conv_%dx%dx%d.b", outC, inC, k), outC),
	}
	fanIn := float64(inC * k * k)
	bound := math.Sqrt(6.0 / fanIn)
	for i := range c.W.Data {
		c.W.Data[i] = (2*rng.Float64() - 1) * bound
	}
	return c
}

// ConvPath names the kernels 5×5 convolutions run on in this process: "avx2"
// (the 4-lane assembly routines) or "portable" (the Go kernels). The CPU and
// the build decide; the bits are the same, the run times are not.
func ConvPath() string {
	if haveAVX2 {
		return "avx2"
	}
	return "portable"
}

// OutSize returns the spatial output size for input size s.
func (c *Conv2D) OutSize(s int) int { return s + 2*c.Pad - c.K + 1 }

// Forward implements Layer. x must be [N, InC, H, W].
//
// Every output pixel receives the additions the textbook loop gives it, in
// the same order: per input channel a sum s over the window's in-range taps
// in (ky, kx) order starting from zero, then out += s channel by channel,
// then the bias. The kernels only change which sums are in flight together,
// so results are bit-identical to that loop (the oracle in conv_ref_test.go)
// on both paths: forwardLanes takes the 5×5 channel quads where the CPU has
// AVX2 (conv_amd64.go), forward4/forward1 everything else and everywhere else.
func (c *Conv2D) Forward(x *Tensor, _ bool) *Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [N, %d, H, W], got %v", c.InC, x.Shape))
	}
	own(&c.convState).x = x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.OutSize(h), c.OutSize(w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D output size %dx%d not positive", oh, ow))
	}
	y := c.out.ensure(n, c.OutC, oh, ow)
	g := convGeom{h: h, w: w, oh: oh, ow: ow, k: c.K, pad: c.Pad}
	hw, ohw, kk := h*w, oh*ow, c.K*c.K
	// The vector path writes its planes whole, bias included; the rest start at +0.
	lanes := c.forwardLanes(&g, x.Data, y.Data, n)
	for ni := 0; ni < n; ni++ {
		xs := x.Data[ni*c.InC*hw:][:c.InC*hw]
		ys := y.Data[ni*c.OutC*ohw:][:c.OutC*ohw]
		clear(ys[lanes*ohw:])
		// Four output channels at a time share every input load and give
		// each pixel four independent sums; the tail goes one by one.
		oc := lanes
		for ; oc+4 <= c.OutC; oc += 4 {
			for ic := 0; ic < c.InC; ic++ {
				g.forward4(ys[oc*ohw:][:4*ohw], xs[ic*hw:][:hw], c.W.Data[(oc*c.InC+ic)*kk:], c.InC*kk)
			}
		}
		for ; oc < c.OutC; oc++ {
			for ic := 0; ic < c.InC; ic++ {
				g.forward1(ys[oc*ohw:][:ohw], xs[ic*hw:][:hw], c.W.Data[(oc*c.InC+ic)*kk:][:kk])
			}
		}
		for oc := lanes; oc < c.OutC; oc++ {
			if bias := c.B.Data[oc]; bias != 0 {
				out := ys[oc*ohw:][:ohw]
				for i := range out {
					out[i] += bias
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
//
// As in Forward, only the traversal differs from the textbook loop: every
// dx element still receives its terms in (oc, oy, ox) order, every W.Grad
// entry in (sample, oy, ox) order, exact-zero output gradients are still
// skipped, and no product with a padding zero is ever formed. backwardLanes
// takes 5×5 channel quads where the CPU has AVX2, each lane the same chain.
func (c *Conv2D) Backward(grad *Tensor) *Tensor { return c.backward(grad, true) }

// backwardParams implements paramBackward. The 5×5 kernels compute the two
// halves of the backward pass apart, so the input half is simply not run;
// other kernel sizes scatter both in one loop and keep doing so.
func (c *Conv2D) backwardParams(grad *Tensor) { c.backward(grad, c.K != 5) }

// backward accumulates W.Grad and B.Grad and, when wantDX is set, computes
// and returns the input gradient; without it the result is nil.
func (c *Conv2D) backward(grad *Tensor, wantDX bool) *Tensor {
	x := c.x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := grad.Shape[2], grad.Shape[3]
	var dx *Tensor
	if wantDX {
		dx = c.dx.ensureZero(n, c.InC, h, w)
	}
	g := convGeom{h: h, w: w, oh: oh, ow: ow, k: c.K, pad: c.Pad}
	hw, ohw, kk := h*w, oh*ow, c.K*c.K
	gw, gb := c.W.grads(), c.B.grads()
	// The vector path's share: W.Grad of ocDone output channels, dx of icDone input channels.
	ocDone, icDone := c.backwardLanes(&g, x, grad, dx)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			gr := grad.Data[(ni*c.OutC+oc)*ohw:][:ohw]
			b := gb[oc]
			for _, v := range gr {
				b += v
			}
			gb[oc] = b
			for ic := 0; ic < c.InC; ic++ {
				xs, dk := x.Data[(ni*c.InC+ic)*hw:][:hw], gw[(oc*c.InC+ic)*kk:][:kk]
				needDK, needDX := oc >= ocDone, wantDX && ic >= icDone
				switch {
				case needDK && needDX:
					g.backward(gr, xs, dx.Data[(ni*c.InC+ic)*hw:][:hw], c.W.Data[(oc*c.InC+ic)*kk:][:kk], dk)
				case needDK:
					g.kernelGrad5(gr, xs, dk)
				case needDX:
					g.inputGrad5(gr, dx.Data[(ni*c.InC+ic)*hw:][:hw], c.W.Data[(oc*c.InC+ic)*kk:][:kk])
				}
			}
		}
	}
	return dx
}

// convGeom is the shape of one stride-1 plane convolution: an h×w input
// plane, a k×k kernel, symmetric zero padding pad, an oh×ow output plane.
type convGeom struct {
	h, w, oh, ow, k, pad int
}

// span returns the half-open range of t in [0, n) for which off+t lies in
// [0, size). With off = o-pad and n = k it is the part of output coordinate
// o's window that falls inside the plane: the clamp is computed once per row
// or pixel where the textbook loop tests every tap. The range is empty
// (hi <= lo) when the window lies wholly in the padding.
func span(off, size, n int) (lo, hi int) {
	lo, hi = -off, size-off
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// forward4 adds the correlation of one input plane with four kernels into
// four adjacent output planes (out holds them back to back; the kernels
// start stride apart in ker). The four sums of a pixel are independent
// floating-point chains fed by the same input loads.
func (g *convGeom) forward4(out, in, ker []float64, stride int) {
	k, w, ohw := g.k, g.w, g.oh*g.ow
	kk := k * k
	o0, o1, o2, o3 := out[:ohw], out[ohw:][:ohw], out[2*ohw:][:ohw], out[3*ohw:][:ohw]
	w0, w1, w2, w3 := ker[:kk], ker[stride:][:kk], ker[2*stride:][:kk], ker[3*stride:][:kk]
	// The unrolled 5-tap rows below read the four kernels interleaved, tap
	// by tap, from one packed copy: one slice per kernel row instead of four.
	var kw [100]float64
	if k == 5 {
		for i := 0; i < 25; i++ {
			kw[4*i], kw[4*i+1], kw[4*i+2], kw[4*i+3] = w0[i], w1[i], w2[i], w3[i]
		}
	}
	for oy := 0; oy < g.oh; oy++ {
		ky0, ky1 := span(oy-g.pad, g.h, g.k)
		for ox := 0; ox < g.ow; ox++ {
			kx0, kx1 := span(ox-g.pad, g.w, g.k)
			nx := kx1 - kx0
			var s0, s1, s2, s3 float64
			if k == 5 && nx == 5 {
				for ky := ky0; ky < ky1; ky++ {
					r := in[(oy-g.pad+ky)*w+ox-g.pad:][:5]
					q := kw[ky*20:][:20]
					r0, r1, r2, r3, r4 := r[0], r[1], r[2], r[3], r[4]
					s0 += r0 * q[0]
					s1 += r0 * q[1]
					s2 += r0 * q[2]
					s3 += r0 * q[3]
					s0 += r1 * q[4]
					s1 += r1 * q[5]
					s2 += r1 * q[6]
					s3 += r1 * q[7]
					s0 += r2 * q[8]
					s1 += r2 * q[9]
					s2 += r2 * q[10]
					s3 += r2 * q[11]
					s0 += r3 * q[12]
					s1 += r3 * q[13]
					s2 += r3 * q[14]
					s3 += r3 * q[15]
					s0 += r4 * q[16]
					s1 += r4 * q[17]
					s2 += r4 * q[18]
					s3 += r4 * q[19]
				}
			} else if nx > 0 {
				for ky := ky0; ky < ky1; ky++ {
					r := in[(oy-g.pad+ky)*w+ox-g.pad+kx0:][:nx]
					at := ky*k + kx0
					a, b, c, d := w0[at:][:nx], w1[at:][:nx], w2[at:][:nx], w3[at:][:nx]
					for i, v := range r {
						s0 += v * a[i]
						s1 += v * b[i]
						s2 += v * c[i]
						s3 += v * d[i]
					}
				}
			}
			p := oy*g.ow + ox
			o0[p] += s0
			o1[p] += s1
			o2[p] += s2
			o3[p] += s3
		}
	}
}

// forward1 is forward4 for a single output plane: the channels left over
// when OutC is not a multiple of four.
func (g *convGeom) forward1(out, in, ker []float64) {
	k, w := g.k, g.w
	for oy := 0; oy < g.oh; oy++ {
		ky0, ky1 := span(oy-g.pad, g.h, g.k)
		for ox := 0; ox < g.ow; ox++ {
			kx0, kx1 := span(ox-g.pad, g.w, g.k)
			var s float64
			if nx := kx1 - kx0; nx > 0 {
				for ky := ky0; ky < ky1; ky++ {
					r := in[(oy-g.pad+ky)*w+ox-g.pad+kx0:][:nx]
					a := ker[ky*k+kx0:][:nx]
					for i, v := range r {
						s += v * a[i]
					}
				}
			}
			out[oy*g.ow+ox] += s
		}
	}
}

// backward scatters one output-gradient plane gr through one kernel: the
// input-gradient plane dIn gains gr⋆ker and the kernel gradient dKer gains
// gr⋆in.
func (g *convGeom) backward(gr, in, dIn, ker, dKer []float64) {
	if g.k == 5 {
		g.kernelGrad5(gr, in, dKer)
		g.inputGrad5(gr, dIn, ker)
		return
	}
	k, w, ow := g.k, g.w, g.ow
	for oy := 0; oy < g.oh; oy++ {
		ky0, ky1 := span(oy-g.pad, g.h, g.k)
		for ox := 0; ox < ow; ox++ {
			gv := gr[oy*ow+ox]
			if gv == 0 {
				continue
			}
			kx0, kx1 := span(ox-g.pad, w, g.k)
			nx := kx1 - kx0
			if nx <= 0 {
				continue
			}
			for ky := ky0; ky < ky1; ky++ {
				at := (oy-g.pad+ky)*w + ox - g.pad + kx0
				r, d := in[at:][:nx], dIn[at:][:nx]
				a, da := ker[ky*k+kx0:][:nx], dKer[ky*k+kx0:][:nx]
				for i, v := range r {
					da[i] += gv * v
					d[i] += gv * a[i]
				}
			}
		}
	}
}

// kernelGrad5 is the kernel-gradient half of backward for a 5×5 kernel. One
// kernel row at a time, its five gradients stay in registers over every
// output row that reaches it, so each still collects its terms in (oy, ox)
// order while five independent chains advance per output gradient. Columns
// whose window crosses the edge of the input row test each tap; the test is
// the bounds check the load needs anyway.
func (g *convGeom) kernelGrad5(gr, in, dKer []float64) {
	w, ow, pad := g.w, g.ow, g.pad
	for ky := 0; ky < 5; ky++ {
		dk := dKer[ky*5:][:5]
		a0, a1, a2, a3, a4 := dk[0], dk[1], dk[2], dk[3], dk[4]
		// Output rows oy whose input row oy-pad+ky exists.
		oy0, oy1 := span(ky-pad, g.h, g.oh)
		for oy := oy0; oy < oy1; oy++ {
			gRow, inRow := gr[oy*ow:][:ow], in[(oy-pad+ky)*w:][:w]
			for ox, gv := range gRow {
				if gv == 0 {
					continue
				}
				ix := ox - pad
				if ix >= 0 && ix+5 <= len(inRow) {
					r := inRow[ix : ix+5]
					a0 += gv * r[0]
					a1 += gv * r[1]
					a2 += gv * r[2]
					a3 += gv * r[3]
					a4 += gv * r[4]
					continue
				}
				if i := ix; uint(i) < uint(len(inRow)) {
					a0 += gv * inRow[i]
				}
				if i := ix + 1; uint(i) < uint(len(inRow)) {
					a1 += gv * inRow[i]
				}
				if i := ix + 2; uint(i) < uint(len(inRow)) {
					a2 += gv * inRow[i]
				}
				if i := ix + 3; uint(i) < uint(len(inRow)) {
					a3 += gv * inRow[i]
				}
				if i := ix + 4; uint(i) < uint(len(inRow)) {
					a4 += gv * inRow[i]
				}
			}
		}
		dk[0], dk[1], dk[2], dk[3], dk[4] = a0, a1, a2, a3, a4
	}
}

// inputGrad5 is the input-gradient half of backward for a 5×5 kernel. It
// walks (oy, ky, ox) where the textbook loop walks (oy, ox, ky); an input
// pixel meets one ky per oy, so it still collects its terms in (oy, ox)
// order. Along a row the five input gradients an output gradient touches
// slide through registers, one column per step. Where the window hangs over
// the edge of the row the registers hold stand-ins that are never stored, so
// the border needs no path of its own and no real element sees an extra term.
func (g *convGeom) inputGrad5(gr, dIn, ker []float64) {
	w, ow, pad := g.w, g.ow, g.pad
	for oy := 0; oy < g.oh; oy++ {
		gRow := gr[oy*ow:][:ow]
		ky0, ky1 := span(oy-g.pad, g.h, g.k)
		for ky := ky0; ky < ky1; ky++ {
			dRow := dIn[(oy-pad+ky)*w:][:w]
			kr := ker[ky*5:][:5]
			k0, k1, k2, k3, k4 := kr[0], kr[1], kr[2], kr[3], kr[4]
			// d0..d4 are the gradients of input columns ox-pad .. ox-pad+4.
			var d0, d1, d2, d3 float64
			if i := -pad; uint(i) < uint(len(dRow)) {
				d0 = dRow[i]
			}
			if i := 1 - pad; uint(i) < uint(len(dRow)) {
				d1 = dRow[i]
			}
			if i := 2 - pad; uint(i) < uint(len(dRow)) {
				d2 = dRow[i]
			}
			if i := 3 - pad; uint(i) < uint(len(dRow)) {
				d3 = dRow[i]
			}
			for ox, gv := range gRow {
				var d4 float64
				if i := ox - pad + 4; uint(i) < uint(len(dRow)) {
					d4 = dRow[i]
				}
				if gv != 0 {
					d0 += gv * k0
					d1 += gv * k1
					d2 += gv * k2
					d3 += gv * k3
					d4 += gv * k4
				}
				if i := ox - pad; uint(i) < uint(len(dRow)) {
					dRow[i] = d0
				}
				d0, d1, d2, d3 = d1, d2, d3, d4
			}
			if i := ow - pad; uint(i) < uint(len(dRow)) {
				dRow[i] = d0
			}
			if i := ow - pad + 1; uint(i) < uint(len(dRow)) {
				dRow[i] = d1
			}
			if i := ow - pad + 2; uint(i) < uint(len(dRow)) {
				dRow[i] = d2
			}
			if i := ow - pad + 3; uint(i) < uint(len(dRow)) {
				dRow[i] = d3
			}
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool2D is a max pooling layer with square window and equal stride.
type MaxPool2D struct {
	K int // window size == stride

	*poolState
}

// poolState is a MaxPool2D's call state.
type poolState struct {
	argmax  []int
	inShape []int
	train   bool // the last Forward wrote argmax
	out, dx tscratch
}

var _ Layer = (*MaxPool2D)(nil)

func (m *MaxPool2D) attach(w *workspace) { m.poolState = takeState[poolState](w) }

// NewMaxPool2D builds a max-pool layer with window k (stride k).
func NewMaxPool2D(k int) *MaxPool2D {
	if k <= 0 {
		panic("nn: MaxPool2D window must be positive")
	}
	return &MaxPool2D{K: k}
}

// Forward implements Layer. x must be [N, C, H, W] with H and W divisible by K.
// In evaluation mode it writes no argmax.
func (m *MaxPool2D) Forward(x *Tensor, train bool) *Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects NCHW, got %v", x.Shape))
	}
	n, cdim, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%m.K != 0 || w%m.K != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D input %dx%d not divisible by %d", h, w, m.K))
	}
	oh, ow := h/m.K, w/m.K
	own(&m.poolState).train = train
	m.inShape = append(m.inShape[:0], x.Shape...)
	y := m.out.ensure(n, cdim, oh, ow)
	var argmax []int
	if train {
		argmax = grow(&m.argmax, y.Len())
	}
	for p := 0; p < n*cdim; p++ {
		base := p * h * w
		in, out := x.Data[base:][:h*w], y.Data[p*oh*ow:][:oh*ow]
		var arg []int
		if train {
			arg = argmax[p*oh*ow:][:oh*ow]
		}
		if m.K == 2 {
			// The window every model here pools with: the loop below with
			// its four taps written out, in the same scan order from the
			// same first element, each test a select on bit patterns.
			for oy := 0; oy < oh; oy++ {
				r0, r1 := in[2*oy*w:][:w], in[(2*oy+1)*w:][:w]
				o, at := out[oy*ow:][:ow], base+2*oy*w
				for ox := range o {
					b, i := above(r0[2*ox], at+2*ox, r0[2*ox+1], at+2*ox+1)
					b, i = above(b, i, r1[2*ox], at+w+2*ox)
					if o[ox], i = above(b, i, r1[2*ox+1], at+w+2*ox+1); train {
						arg[oy*ow+ox] = i
					}
				}
			}
			continue
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				// Start from the window's first element, not -Inf: a
				// window that is all NaN (a diverged model) or all -Inf
				// then still has an argmax inside it for Backward, and
				// the NaN propagates. The first maximum wins either way.
				first := oy*m.K*w + ox*m.K
				best, bestIdx := in[first], base+first
				for ky := 0; ky < m.K; ky++ {
					iy := oy*m.K + ky
					for kx := 0; kx < m.K; kx++ {
						ix := ox*m.K + kx
						if v := in[iy*w+ix]; v > best {
							best = v
							bestIdx = base + iy*w + ix
						}
					}
				}
				out[oy*ow+ox] = best
				if train {
					arg[oy*ow+ox] = bestIdx
				}
			}
		}
	}
	return y
}

// above returns (v, j) if v > best and (best, at) otherwise: the window loop's
// test, as a select on bit patterns.
func above(best float64, at int, v float64, j int) (float64, int) {
	m := allOnes(v > best)
	b := math.Float64bits(best)
	return math.Float64frombits(b ^ (b^math.Float64bits(v))&m), at ^ (at^j)&int(m)
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *Tensor) *Tensor {
	mustHaveTrained(m.train, "MaxPool2D")
	dx := m.dx.ensureZero(m.inShape...)
	for i, g := range grad.Data {
		dx.Data[m.argmax[i]] += g
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }
