//go:build amd64 && !purego

package nn

import (
	"slices"
	"testing"

	"repro/internal/vec"
)

// cpuAVX2 is what the CPU selected, read before any test flips the path.
var cpuAVX2 = haveAVX2

// setVectorPath turns the 4-lane path on or off (see forEachConvPath).
func setVectorPath(on bool) { haveAVX2 = on }

// TestConvRunTableCoversTile holds forwardLanes' run tables to what the
// routine does with a run, for every geometry of vectorTileCases and both
// plane counts. The runs write each tile pixel whose window meets the plane
// exactly once, from that window, and no other pixel (a window wholly in the
// padding sums to +0, where the tile starts); every element a run's streams
// touch lies inside the buffer it addresses, the lane tile, the input planes
// or their packed kernels; and a layer driven at a second shape relists its
// table.
func TestConvRunTableCoversTile(t *testing.T) {
	for _, cc := range vectorTileCases() {
		g := convGeom{h: cc.h, w: cc.w, oh: cc.h + 2*cc.pad - 4, ow: cc.w + 2*cc.pad - 4, k: 5, pad: cc.pad}
		hw, ohw := g.h*g.w, g.oh*g.ow
		var table laneRuns
		table.list(&g)
		for _, chans := range []int{1, 4} {
			runs := table.one
			if chans == 4 {
				runs = table.quad
			}
			writes := make([]int, ohw)
			for _, r := range runs {
				for tile := 0; tile < r.tiles; tile++ {
					for j := 0; j < 4; j++ {
						in, kw := r.in+tile*r.inNext+j*r.inStride, r.kw+j*r.kwStride
						for row := 0; row < r.rows; row++ {
							for col := 0; col < r.cols; col++ {
								if i, k := in+row*g.w+col, kw+(row*5+col)*4; i < 0 || i >= chans*hw || k < 0 || k+4 > chans*100 {
									t.Fatalf("%+v chans %d: run %+v reads input %d or kernel %d outside its buffers", g, chans, r, i, k)
								}
							}
						}
						if j >= r.nt {
							continue // a stream whose sum the routine drops
						}
						at := r.t + tile*r.tNext + j*r.tStride
						if at < 0 || at%4 != 0 || at+4 > 4*ohw {
							t.Fatalf("%+v chans %d: run %+v writes tile offset %d", g, chans, r, at)
						}
						p := at / 4
						oy, ox := p/g.ow, p%g.ow
						ky0, ky1 := span(oy-g.pad, g.h, 5)
						kx0, kx1 := span(ox-g.pad, g.w, 5)
						plane := 0
						if chans == 4 {
							plane = j // the streams are the four channels of one pixel
						}
						if r.rows != ky1-ky0 || r.cols != kx1-kx0 ||
							in != plane*hw+(oy-g.pad+ky0)*g.w+ox-g.pad+kx0 || kw != plane*100+(ky0*5+kx0)*4 {
							t.Fatalf("%+v chans %d: run %+v does not sum pixel (%d, %d) over its window", g, chans, r, oy, ox)
						}
						if plane == 0 {
							writes[p]++
						}
					}
				}
			}
			for p, n := range writes {
				ky0, ky1 := span(p/g.ow-g.pad, g.h, 5)
				kx0, kx1 := span(p%g.ow-g.pad, g.w, 5)
				want := 0
				if ky1 > ky0 && kx1 > kx0 {
					want = 1
				}
				if n != want {
					t.Fatalf("%+v chans %d: pixel %d written %d times, want %d", g, chans, p, n, want)
				}
			}
		}
	}
	t.Run("relisted", func(t *testing.T) {
		if !cpuAVX2 {
			t.Skip("no AVX2 path on this CPU")
		}
		defer setVectorPath(cpuAVX2)
		setVectorPath(true)
		c := NewConv2D(5, 4, 5, 2, vec.NewRNG(74))
		for _, hw := range [][2]int{{7, 9}, {6, 5}, {7, 9}} {
			c.Forward(NewTensor(1, 5, hw[0], hw[1]), true)
			g := convGeom{h: hw[0], w: hw[1], oh: hw[0], ow: hw[1], k: 5, pad: 2}
			var fresh laneRuns
			fresh.list(&g)
			if c.runs.geom != g || !slices.Equal(c.runs.quad, fresh.quad) || !slices.Equal(c.runs.one, fresh.one) {
				t.Fatalf("at %dx%d the layer runs the table of %+v", hw[0], hw[1], c.runs.geom)
			}
		}
	})
}
