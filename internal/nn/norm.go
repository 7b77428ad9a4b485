package nn

import (
	"fmt"
	"math"
)

// GroupNorm normalizes NCHW activations over channel groups per sample, with
// a learned per-channel affine transform. The paper's image models follow
// GN-LeNet (Hsieh et al.), which replaces batch norm with group norm because
// batch statistics break under non-IID decentralized training.
type GroupNorm struct {
	C      int // channels
	Groups int
	Eps    float64
	Gamma  *Param
	Beta   *Param

	*normState
}

// normState is a GroupNorm's call state.
type normState struct {
	x       *Tensor
	xhat    []float64
	invSD   []float64 // per (sample, group)
	out, dx tscratch
}

var _ Layer = (*GroupNorm)(nil)

func (g *GroupNorm) attach(w *workspace) { g.normState = takeState[normState](w) }

// NewGroupNorm builds a group-norm layer over c channels in the given number
// of groups (c must be divisible by groups).
func NewGroupNorm(c, groups int) *GroupNorm {
	if groups <= 0 || c%groups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm channels %d not divisible by groups %d", c, groups))
	}
	g := &GroupNorm{
		C:      c,
		Groups: groups,
		Eps:    1e-5,
		Gamma:  newParam(fmt.Sprintf("gn_%d.gamma", c), c),
		Beta:   newParam(fmt.Sprintf("gn_%d.beta", c), c),
	}
	for i := range g.Gamma.Data {
		g.Gamma.Data[i] = 1
	}
	return g
}

// Forward implements Layer. x must be [N, C, H, W].
func (g *GroupNorm) Forward(x *Tensor, _ bool) *Tensor {
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

// Backward implements Layer.
func (g *GroupNorm) Backward(grad *Tensor) *Tensor {
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

// Params implements Layer.
func (g *GroupNorm) Params() []*Param { return []*Param{g.Gamma, g.Beta} }
