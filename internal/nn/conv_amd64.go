//go:build amd64 && !purego

package nn

// haveAVX2 selects Forward's 4-lane path. The CPU and the OS decide it, once,
// and nothing else does; the tests flip it to hold both paths to one oracle.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func convSum4(t *float64, tStride, nt int, in *float64, inStride, inPitch int, kw *float64, kwStride, rows, cols, tiles, tNext, inNext int)

// forwardLanes is Forward for 5×5 kernels with four adjacent output channels
// as the four lanes of a vector: it fills the first OutC/4*4 output planes of
// all n samples and returns how many that is. A lane runs the chain forward4
// runs for its channel (convSum4, conv_amd64.s): the same bits. A quad's sums
// collect in a lane-interleaved tile t[oh*ow][4] that starts at +0 as y does.
func (c *Conv2D) forwardLanes(g *convGeom, x, y []float64, n int) int {
	quads, hw, ohw := c.OutC/4, g.h*g.w, g.oh*g.ow
	if !haveAVX2 || c.K != 5 || quads == 0 {
		return 0
	}
	// Kernels as [quad][ic][tap][lane]: one vector load per tap.
	pk, t := c.pk.ensure(quads, c.InC, 25, 4).Data, c.tile.ensure(ohw, 4).Data
	for o := 0; o < 4*quads; o++ {
		for ic := 0; ic < c.InC; ic++ {
			dst := pk[(o/4*c.InC+ic)*100+o%4:]
			for i, v := range c.W.Data[(o*c.InC+ic)*25:][:25] {
				dst[4*i] = v
			}
		}
	}
	for ni := 0; ni < n; ni++ {
		for q := 0; q < quads; q++ {
			clear(t)
			xs, kq, ic := x[ni*c.InC*hw:][:c.InC*hw], pk[q*c.InC*100:][:c.InC*100], 0
			for ; ic+4 <= c.InC; ic += 4 {
				g.lanePlanes(t, xs[ic*hw:][:4*hw], kq[ic*100:][:400], 4)
			}
			for ; ic < c.InC; ic++ {
				g.lanePlanes(t, xs[ic*hw:][:hw], kq[ic*100:][:100], 1)
			}
			for l := 0; l < 4; l++ {
				o := y[(ni*c.OutC+4*q+l)*ohw:][:ohw]
				for p := range o {
					o[p] = t[4*p+l]
				}
			}
		}
	}
	return 4 * quads
}

// lanePlanes adds chans (4 or 1) input planes to the tile, as runs of pixels
// with equal tap ranges: along every row over the columns whose window has
// all five columns, down every other column over the rows whose window has
// all five rows, and the corners pixel by pixel.
func (g *convGeom) lanePlanes(t, in, kw []float64, chans int) {
	xa, xb := g.pad, max(g.pad, g.w+g.pad-4)
	ya, yb := g.pad, max(g.pad, g.h+g.pad-4)
	for oy := 0; oy < g.oh; oy++ {
		g.run(t, in, kw, chans, oy, xa, xb-xa, 1, 1)
	}
	for ox := 0; ox < g.ow; ox++ {
		if ox >= xa && ox < xb {
			continue
		}
		g.run(t, in, kw, chans, ya, ox, yb-ya, g.ow, g.w)
		for oy := 0; oy < g.oh; oy++ {
			if oy < ya || oy >= yb {
				g.run(t, in, kw, chans, oy, ox, 1, 1, 1)
			}
		}
	}
}

// run adds the planes' sums to n pixels that share (oy, ox)'s tap range and
// lie tStep pixels apart in the tile, inStep in the input; a window wholly in
// the padding sums to +0, and adding that changes nothing. With four planes
// the routine's streams are the four channels of one pixel, their sums added
// in channel order. With one plane they are four pixels; those left over go
// one at a time, as four streams over one pixel of which the routine keeps one.
func (g *convGeom) run(t, in, kw []float64, chans, oy, ox, n, tStep, inStep int) {
	ky0, ky1 := span(oy-g.pad, g.h, 5)
	kx0, kx1 := span(ox-g.pad, g.w, 5)
	rows, cols := ky1-ky0, kx1-kx0
	if n <= 0 || rows <= 0 || cols <= 0 {
		return
	}
	t, in, kw = t[(oy*g.ow+ox)*4:], in[(oy-g.pad+ky0)*g.w+ox-g.pad+kx0:], kw[(ky0*5+kx0)*4:]
	if chans == 4 {
		g.sum4(t, 0, 4, in, g.h*g.w, kw, 100, rows, cols, n, 4*tStep, inStep)
		return
	}
	if n >= 4 {
		g.sum4(t, 4*tStep, 4, in, inStep, kw, 0, rows, cols, n/4, 16*tStep, 4*inStep)
	}
	if r := n % 4; r > 0 {
		g.sum4(t[(n-r)*4*tStep:], 0, 1, in[(n-r)*inStep:], 0, kw, 0, rows, cols, r, 4*tStep, inStep)
	}
}

// sum4 slices each buffer to the last element the streams touch before it
// takes an address: a wrong geometry panics here instead of reaching the heap.
func (g *convGeom) sum4(t []float64, tStride, nt int, in []float64, inStride int, kw []float64, kwStride, rows, cols, tiles, tNext, inNext int) {
	t = t[:(tiles-1)*tNext+(nt-1)*tStride+4]
	in = in[:(tiles-1)*inNext+3*inStride+(rows-1)*g.w+cols]
	kw = kw[:3*kwStride+((rows-1)*5+cols)*4]
	convSum4(&t[0], tStride, nt, &in[0], inStride, g.w, &kw[0], kwStride, rows, cols, tiles, tNext, inNext)
}
