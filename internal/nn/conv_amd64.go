//go:build amd64 && !purego

package nn

import (
	"slices"

	"repro/internal/vec"
)

// haveAVX2 selects the 4-lane path. The CPU and the OS decide it, once, and
// nothing else does; the tests flip it to hold both paths to one oracle.
var haveAVX2 = vec.HasAVX2()

//go:noescape
func convSum4(t *float64, tStride, nt int, in *float64, inStride, inPitch int, kw *float64, kwStride, rows, cols, tiles, tNext, inNext int)

// forwardLanes is Forward for 5×5 kernels with four adjacent output channels
// as the four lanes of a vector: it fills the first OutC/4*4 output planes of
// all n samples, bias included, and returns how many that is. A lane runs the
// chain forward4 runs for its channel (convSum4, conv_amd64.s): the same bits.
// A quad's sums collect in a lane-interleaved tile t[oh*ow][4] that starts at
// +0 as y does; the bias is added where it leaves the tile, as Forward adds it.
func (c *Conv2D) forwardLanes(g *convGeom, x, y []float64, n int) int {
	quads, hw, ohw := c.OutC/4, g.h*g.w, g.oh*g.ow
	if !haveAVX2 || c.K != 5 || quads == 0 {
		return 0
	}
	pk, t := c.pk.ensure(quads, c.InC, 25, 4).Data, c.tile.ensure(ohw, 4).Data
	c.packQuads(pk, c.W.Data, false)
	c.runs.list(g)
	for ni := 0; ni < n; ni++ {
		for q := 0; q < quads; q++ {
			clear(t)
			xs, kq, ic := x[ni*c.InC*hw:][:c.InC*hw], pk[q*c.InC*100:][:c.InC*100], 0
			for ; ic+4 <= c.InC; ic += 4 {
				sumRuns(t, xs[ic*hw:][:4*hw], kq[ic*100:][:400], g.w, c.runs.quad)
			}
			for ; ic < c.InC; ic++ {
				sumRuns(t, xs[ic*hw:][:hw], kq[ic*100:][:100], g.w, c.runs.one)
			}
			for l := 0; l < 4; l++ {
				o, bias := y[(ni*c.OutC+4*q+l)*ohw:][:ohw], c.B.Data[4*q+l]
				for p := range o {
					if o[p] = t[4*p+l]; bias != 0 {
						o[p] += bias
					}
				}
			}
		}
	}
	return 4 * quads
}

// sumRuns makes a run table's convSum4 calls on one set of input planes, whose
// buffers have the lengths the table was checked against when it was listed.
func sumRuns(t, in, kw []float64, pitch int, runs []laneRun) {
	for i := range runs {
		r := &runs[i]
		convSum4(&t[r.t], r.tStride, r.nt, &in[r.in], r.inStride, pitch, &kw[r.kw], r.kwStride, r.rows, r.cols, r.tiles, r.tNext, r.inNext)
	}
}

// packQuads copies the [oc][ic][tap] weights or gradients w of the output
// channel quads into pk as [quad][ic][tap][lane], one vector load per tap, or
// back out of it when unpack is set.
func (c *Conv2D) packQuads(pk, w []float64, unpack bool) {
	for o := 0; o < c.OutC/4*4; o++ {
		for ic := 0; ic < c.InC; ic++ {
			lanes, plain := pk[(o/4*c.InC+ic)*100+o%4:], w[(o*c.InC+ic)*25:][:25]
			for i := range plain {
				if unpack {
					plain[i] = lanes[4*i]
				} else {
					lanes[4*i] = plain[i]
				}
			}
		}
	}
}

// laneRun is one convSum4 call of a run table: where its first tile starts in
// the lane tile, the input planes and their packed kernels, then the routine's
// other arguments as it takes them.
type laneRun struct {
	t, tStride, nt, in, inStride, kw, kwStride, rows, cols, tiles, tNext, inNext int
}

// laneRuns is forwardLanes' run table for one geometry, kept in the layer's
// call state: the calls that add four input planes (quad) or one (one) to the
// tile, over runs of pixels with equal tap ranges.
type laneRuns struct {
	geom      convGeom
	quad, one []laneRun
}

// list makes r g's table unless it is already: runs along every row over the
// columns whose window has all five columns, down every other column over the
// rows whose window has all five rows, and the corners pixel by pixel.
func (r *laneRuns) list(g *convGeom) {
	if r.geom == *g {
		return
	}
	r.geom, r.quad, r.one = *g, r.quad[:0], r.one[:0]
	xa, xb := g.pad, max(g.pad, g.w+g.pad-4)
	ya, yb := g.pad, max(g.pad, g.h+g.pad-4)
	for oy := 0; oy < g.oh; oy++ {
		r.add(oy, xa, xb-xa, 1, 1)
	}
	for ox := 0; ox < g.ow; ox++ {
		if ox >= xa && ox < xb {
			continue
		}
		r.add(ya, ox, yb-ya, g.ow, g.w)
		for oy := 0; oy < g.oh; oy++ {
			if oy < ya || oy >= yb {
				r.add(oy, ox, 1, 1, 1)
			}
		}
	}
}

// add lists the runs over n pixels that share (oy, ox)'s tap range and lie
// tStep pixels apart in the tile, inStep in the input; a window wholly in the
// padding sums to +0, which changes nothing, and gets none. With four planes
// the routine's streams are the four channels of one pixel, their sums added
// in channel order. With one plane they are four pixels; those left over go
// one at a time, as four streams over one pixel of which the routine keeps one.
func (r *laneRuns) add(oy, ox, n, tStep, inStep int) {
	g := &r.geom
	ky0, ky1 := span(oy-g.pad, g.h, 5)
	kx0, kx1 := span(ox-g.pad, g.w, 5)
	rows, cols := ky1-ky0, kx1-kx0
	if n <= 0 || rows <= 0 || cols <= 0 {
		return
	}
	t, in, kw := (oy*g.ow+ox)*4, (oy-g.pad+ky0)*g.w+ox-g.pad+kx0, (ky0*5+kx0)*4
	r.quad = g.checked(r.quad, laneRun{t, 0, 4, in, g.h * g.w, kw, 100, rows, cols, n, 4 * tStep, inStep}, 4)
	if n >= 4 {
		r.one = g.checked(r.one, laneRun{t, 4 * tStep, 4, in, inStep, kw, 0, rows, cols, n / 4, 16 * tStep, 4 * inStep}, 1)
	}
	if m := n % 4; m > 0 {
		r.one = g.checked(r.one, laneRun{t + (n-m)*4*tStep, 0, 1, in + (n-m)*inStep, 0, kw, 0, rows, cols, m, 4 * tStep, inStep}, 1)
	}
}

// checked appends r to runs once every element its streams touch lies in the
// lane tile, chans input planes and their packed kernels: a wrong table
// panics here, as it is listed, instead of reaching the heap.
func (g *convGeom) checked(runs []laneRun, r laneRun, chans int) []laneRun {
	tEnd := r.t + (r.tiles-1)*r.tNext + (r.nt-1)*r.tStride + 4
	inEnd := r.in + (r.tiles-1)*r.inNext + 3*r.inStride + (r.rows-1)*g.w + r.cols
	kwEnd := r.kw + 3*r.kwStride + ((r.rows-1)*5+r.cols)*4
	if min(r.t, r.in, r.kw) < 0 || min(r.nt, r.rows, r.cols, r.tiles) < 1 ||
		tEnd > g.oh*g.ow*4 || inEnd > chans*g.h*g.w || kwEnd > chans*100 {
		panic("nn: a conv run reaches outside its buffers")
	}
	return append(runs, r)
}

//go:noescape
func convKernelGrad4(acc *float64, n int, gt *float64, gtPitch int, in *float64, inStride, inPitch int, taps *int, sparse bool)

//go:noescape
func convInputGrad4(d *float64, dPitch int, gr *float64, oh, ow int, kw *float64, h, pad int)

// backwardLanes is backward's vector path, for 5×5 kernels: it returns how
// many leading output channels have their W.Grad and how many leading input
// channels their dx (wanted unless dx is nil); the portable kernels take the rest.
func (c *Conv2D) backwardLanes(g *convGeom, x, grad, dx *Tensor) (ocDone, icDone int) {
	if !haveAVX2 || c.K != 5 {
		return 0, 0
	}
	return c.kernelGradLanes(g, x.Data, grad.Data, x.Shape[0]), c.inputGradLanes(g, grad.Data, dx, x.Shape[0])
}

// kernelGradLanes accumulates W.Grad for the output channel quads: four
// adjacent output channels are the lanes, as in forwardLanes, so a first
// layer's three input channels are no obstacle. The gradients sit in pk, in
// its layout, for the whole call, every entry collecting kernelGrad5's terms in
// (sample, oy, ox) order; a quad's planes are interleaved into tile per sample.
func (c *Conv2D) kernelGradLanes(g *convGeom, x, grad []float64, n int) int {
	quads, hw, ohw := c.OutC/4, g.h*g.w, g.oh*g.ow
	// With under three input channels half the routine's streams idle; if the
	// gradients are sparse too (LEAF-CNN's first layer) kernelGrad5 is faster.
	if quads == 0 || c.InC < 3 && slices.Contains(grad, 0) {
		return 0
	}
	dk, t := c.pk.ensure(quads, c.InC, 25, 4).Data, c.tile.ensure(ohw, 4).Data
	c.packQuads(dk, c.W.Grad, false)
	// Per tap {offset in t, offset in the input plane, rows, cols}: the output
	// pixels whose window has the tap inside the plane, so none meets padding.
	var taps [100]int
	for i := 0; i < 25; i++ {
		oy0, oy1 := span(i/5-g.pad, g.h, g.oh)
		ox0, ox1 := span(i%5-g.pad, g.w, g.ow)
		if oy1 > oy0 && ox1 > ox0 {
			copy(taps[4*i:], []int{(oy0*g.ow + ox0) * 4, (oy0-g.pad+i/5)*g.w + ox0 - g.pad + i%5, oy1 - oy0, ox1 - ox0})
		}
	}
	for ni := 0; ni < n; ni++ {
		for q := 0; q < quads; q++ {
			sparse := false // set by an exact zero; without one (under GroupNorm) no lane is ever skipped
			for l := 0; l < 4; l++ {
				for p, v := range grad[(ni*c.OutC+4*q+l)*ohw:][:ohw] {
					t[4*p+l] = v
					sparse = sparse || v == 0
				}
			}
			for ic := 0; ic < c.InC; ic += 4 {
				// Slice before taking addresses: a wrong geometry panics here.
				nc := min(4, c.InC-ic)
				acc, in := dk[(q*c.InC+ic)*100:][:nc*100], x[(ni*c.InC+ic)*hw:][:nc*hw]
				convKernelGrad4(&acc[0], nc, &t[0], 4*g.ow, &in[0], hw, g.w, &taps[0], sparse)
			}
		}
	}
	c.packQuads(dk, c.W.Grad, true)
	return 4 * quads
}

// inputGradLanes computes dx for the input channel quads. Here four adjacent
// input channels are the lanes: a dx element takes its terms in (oc, oy, ox)
// order, so the output channels run one after the other. A quad's dx planes
// collect from +0, as dx does, in the lane-interleaved tile dxt, whose rows of
// ow+4 columns have room for the stand-ins inputGrad5 keeps in registers.
func (c *Conv2D) inputGradLanes(g *convGeom, grad []float64, dx *Tensor, n int) int {
	quads, ohw, w2 := c.InC/4, g.oh*g.ow, g.ow+4
	if dx == nil || quads == 0 {
		return 0
	}
	// Kernels as [oc][quad][tap][lane].
	kin, d := c.kin.ensure(c.OutC, quads, 25, 4).Data, c.dxt.ensure(g.h, w2, 4).Data
	for oc := 0; oc < c.OutC; oc++ {
		for ic := 0; ic < 4*quads; ic++ {
			dst := kin[(oc*quads+ic/4)*100+ic%4:]
			for i, v := range c.W.Data[(oc*c.InC+ic)*25:][:25] {
				dst[4*i] = v
			}
		}
	}
	for ni := 0; ni < n; ni++ {
		for q := 0; q < quads; q++ {
			clear(d)
			for oc := 0; oc < c.OutC; oc++ {
				gr, kw := grad[(ni*c.OutC+oc)*ohw:][:ohw], kin[(oc*quads+q)*100:][:100]
				convInputGrad4(&d[0], 4*w2, &gr[0], g.oh, g.ow, &kw[0], g.h, g.pad)
			}
			for l := 0; l < 4; l++ {
				for iy := 0; iy < g.h; iy++ {
					row, src := dx.Data[((ni*c.InC+4*q+l)*g.h+iy)*g.w:][:g.w], d[(iy*w2+g.pad)*4+l:]
					for ix := range row {
						row[ix] = src[4*ix]
					}
				}
			}
		}
	}
	return 4 * quads
}
