package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vec"
)

// refGroupNorm is the oracle for GroupNorm: a layer over the same parameters
// and scratch as the GroupNorm it wraps, whose Forward and Backward are the
// loops GroupNorm had before its statistics went four segments at a time and
// its affine gradients into locals, kept verbatim (one serial chain per
// segment, gradients accumulated in place).
type refGroupNorm struct{ *GroupNorm }

var _ Layer = refGroupNorm{}

func (g refGroupNorm) Forward(x *Tensor, _ bool) *Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != g.C {
		panic(fmt.Sprintf("nn: GroupNorm expects [N, %d, H, W], got %v", g.C, x.Shape))
	}
	own(&g.normState).x = x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	spatial := h * w
	chPerGroup := g.C / g.Groups
	groupLen := chPerGroup * spatial
	y := g.out.ensure(x.Shape...)
	grow(&g.xhat, x.Len())
	grow(&g.invSD, n*g.Groups)

	for ni := 0; ni < n; ni++ {
		for gi := 0; gi < g.Groups; gi++ {
			off := ni*g.C*spatial + gi*groupLen
			seg := x.Data[off : off+groupLen]
			var mean float64
			for _, v := range seg {
				mean += v
			}
			mean /= float64(groupLen)
			var variance float64
			for _, v := range seg {
				d := v - mean
				variance += d * d
			}
			variance /= float64(groupLen)
			inv := 1 / math.Sqrt(variance+g.Eps)
			g.invSD[ni*g.Groups+gi] = inv
			for c := 0; c < chPerGroup; c++ {
				ch := gi*chPerGroup + c
				gamma, beta := g.Gamma.Data[ch], g.Beta.Data[ch]
				for s := 0; s < spatial; s++ {
					i := off + c*spatial + s
					xh := (x.Data[i] - mean) * inv
					g.xhat[i] = xh
					y.Data[i] = gamma*xh + beta
				}
			}
		}
	}
	return y
}

func (g refGroupNorm) Backward(grad *Tensor) *Tensor {
	x := g.x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	spatial := h * w
	chPerGroup := g.C / g.Groups
	groupLen := chPerGroup * spatial
	m := float64(groupLen)
	dx := g.dx.ensure(x.Shape...)

	for ni := 0; ni < n; ni++ {
		for gi := 0; gi < g.Groups; gi++ {
			off := ni*g.C*spatial + gi*groupLen
			inv := g.invSD[ni*g.Groups+gi]
			// dxhat = dy * gamma; need sum(dxhat) and sum(dxhat * xhat).
			var sumD, sumDX float64
			for c := 0; c < chPerGroup; c++ {
				ch := gi*chPerGroup + c
				gamma := g.Gamma.Data[ch]
				for s := 0; s < spatial; s++ {
					i := off + c*spatial + s
					dxh := grad.Data[i] * gamma
					sumD += dxh
					sumDX += dxh * g.xhat[i]
					// Accumulate affine gradients in the same pass.
					g.Gamma.Grad[ch] += grad.Data[i] * g.xhat[i]
					g.Beta.Grad[ch] += grad.Data[i]
				}
			}
			for c := 0; c < chPerGroup; c++ {
				ch := gi*chPerGroup + c
				gamma := g.Gamma.Data[ch]
				for s := 0; s < spatial; s++ {
					i := off + c*spatial + s
					dxh := grad.Data[i] * gamma
					dx.Data[i] = inv / m * (m*dxh - sumD - g.xhat[i]*sumDX)
				}
			}
		}
	}
	return dx
}

// twinNorm returns a layer of g's shape over copies of its parameters and
// gradients, with scratch of its own.
func twinNorm(g *GroupNorm) *GroupNorm {
	clone := func(p *Param) *Param {
		return &Param{Data: append([]float64(nil), p.Data...), Grad: append([]float64(nil), p.grads()...)}
	}
	return &GroupNorm{C: g.C, Groups: g.Groups, Eps: g.Eps, Gamma: clone(g.Gamma), Beta: clone(g.Beta)}
}

// TestGroupNormMatchesReference holds GroupNorm to the loops it replaced, bit
// for bit: y in both modes, dx, and Gamma.Grad and Beta.Grad accumulated over
// two passes on top of non-zero gradients. n·Groups runs from one segment to
// nine, so the four-segment statistics meet every tail, over one and three
// channels per group; oddValues put ±0, ±Inf, NaN and the extreme magnitudes
// into the input and the gradient.
func TestGroupNormMatchesReference(t *testing.T) {
	rng := vec.NewRNG(51)
	for _, groups := range []int{1, 2, 4} {
		for n := 1; n*groups <= 9; n++ {
			for _, size := range []int{1, 2, 8, 16} { // spatial 1, 4, 64, 256
				for _, odd := range []bool{false, true} {
					name := fmt.Sprintf("n%d_groups%d_%dx%d_odd%v", n, groups, size, size, odd)
					got := NewGroupNorm(groups*(1+2*(n%2)), groups) // groupLen a power of two or not
					for _, p := range got.Params() {
						fillSigned(p.Data, rng)
						fillSigned(p.grads(), rng)
					}
					want := refGroupNorm{twinNorm(got)}
					for pass := 0; pass < 2; pass++ {
						x := NewTensor(n, got.C, size, size)
						for i := range x.Data {
							x.Data[i] = 3*rng.NormFloat64() + 1
						}
						grad := NewTensor(x.Shape...)
						fillSigned(grad.Data, rng)
						if odd {
							copy(x.Data, oddValues)
							copy(grad.Data[len(grad.Data)/2:], oddValues)
						}
						yRef := want.Forward(x, true)
						if i := firstBitDiff(got.Forward(x, false).Data, yRef.Data); i >= 0 {
							t.Fatalf("%s pass %d: eval y[%d] differs from the reference's", name, pass, i)
						}
						if i := firstBitDiff(got.Forward(x, true).Data, yRef.Data); i >= 0 {
							t.Fatalf("%s pass %d: y[%d] differs from the reference's", name, pass, i)
						}
						if i := firstBitDiff(got.Backward(grad).Data, want.Backward(grad).Data); i >= 0 {
							t.Fatalf("%s pass %d: dx[%d] differs from the reference's", name, pass, i)
						}
						if i := firstBitDiff(paramGrads(got.Params()), paramGrads(want.Params())); i >= 0 {
							t.Fatalf("%s pass %d: parameter gradient %d differs from the reference's", name, pass, i)
						}
					}
				}
			}
		}
	}
}
