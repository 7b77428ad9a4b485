//go:build amd64 && !purego

package dwt

import "repro/internal/vec"

// haveAVX2 selects the 4-lane levels. The CPU and the OS decide it, once, and
// nothing else does; the tests flip it to hold both paths to one oracle.
var haveAVX2 = vec.HasAVX2()

//go:noescape
func analyzeQuads(x, approx, detail *float64, quads int, lo, hi *float64)

//go:noescape
func synthesizeQuads(a, d, x *float64, quads int, lo, hi *float64)

// analyzeLanes fills the first main/4*4 outputs of analyze4's wrap-free main
// region, four at a time (analyzeQuads, lanes_amd64.s), and returns how many
// that is.
func analyzeLanes(x, h, g, approx, detail []float64, main int) int {
	quads := main / 4
	if !haveAVX2 || quads == 0 {
		return 0
	}
	// Slice before taking addresses: quad q reads x[8q .. 8q+9].
	x, approx, detail, h, g = x[:8*quads+2], approx[:4*quads], detail[:4*quads], h[:4], g[:4]
	analyzeQuads(&x[0], &approx[0], &detail[0], quads, &h[0], &g[0])
	return 4 * quads
}

// synthesizeLanes writes the output pairs x[2i], x[2i+1] of synthesize4's
// gather for i = 1 .. (half−1)/4*4, four at a time (synthesizeQuads), and
// returns how many pairs that is.
func synthesizeLanes(approx, detail, h, g, x []float64) int {
	quads := (len(approx) - 1) / 4
	if !haveAVX2 || quads <= 0 {
		return 0
	}
	// Slice before taking addresses: quad q reads a[4q .. 4q+4] and d likewise.
	approx, detail, x, h, g = approx[:4*quads+1], detail[:4*quads+1], x[2:2+8*quads], h[:4], g[:4]
	synthesizeQuads(&approx[0], &detail[0], &x[0], quads, &h[0], &g[0])
	return 4 * quads
}
