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
	train   bool      // the last Forward wrote xhat
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

// Forward implements Layer. x must be [N, C, H, W]. In evaluation mode it
// writes no xhat. The (sample, group) segments lie back to back in x, all of
// one length, so moments takes their statistics four at a time.
func (g *GroupNorm) Forward(x *Tensor, train bool) *Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != g.C {
		panic(fmt.Sprintf("nn: GroupNorm expects [N, %d, H, W], got %v", g.C, x.Shape))
	}
	st := own(&g.normState)
	st.x, st.train = x, train
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	spatial := h * w
	chPerGroup := g.C / g.Groups
	groupLen := chPerGroup * spatial
	y := g.out.ensure(x.Shape...)
	if train {
		grow(&g.xhat, x.Len())
	}
	segs := n * g.Groups
	grow(&g.invSD, segs)

	for seg0 := 0; seg0 < segs; seg0 += 4 {
		k := min(4, segs-seg0)
		means, invs := moments(x.Data[seg0*groupLen:][:k*groupLen], k, groupLen, g.Eps)
		for j := 0; j < k; j++ {
			gi, off, mean, inv := (seg0+j)%g.Groups, (seg0+j)*groupLen, means[j], invs[j]
			g.invSD[seg0+j] = inv
			for c := 0; c < chPerGroup; c++ {
				ch := gi*chPerGroup + c
				gamma, beta := g.Gamma.Data[ch], g.Beta.Data[ch]
				xs, ys := x.Data[off+c*spatial:][:spatial], y.Data[off+c*spatial:][:spatial]
				if !train {
					for s, v := range xs {
						ys[s] = gamma*((v-mean)*inv) + beta
					}
					continue
				}
				xhat := g.xhat[off+c*spatial:][:len(xs)]
				for s, v := range xs {
					xhat[s] = (v - mean) * inv
					ys[s] = gamma*xhat[s] + beta
				}
			}
		}
	}
	return y
}

// moments returns the means and the reciprocals of sqrt(variance+eps) of the
// k (1..4) segments of length m that x holds back to back. They run as four
// independent chains, each adding up its own segment in the serial loop's
// order; with fewer than four segments the last one fills the spare chains.
func moments(x []float64, k, m int, eps float64) (means, invs [4]float64) {
	a := x[:m]
	b, c, d := x[min(1, k-1)*m:][:len(a)], x[min(2, k-1)*m:][:len(a)], x[min(3, k-1)*m:][:len(a)]
	var s0, s1, s2, s3 float64
	for i, v := range a {
		s0 += v
		s1 += b[i]
		s2 += c[i]
		s3 += d[i]
	}
	fm := float64(m)
	m0, m1, m2, m3 := s0/fm, s1/fm, s2/fm, s3/fm
	var q0, q1, q2, q3 float64
	for i, v := range a {
		d0, d1, d2, d3 := v-m0, b[i]-m1, c[i]-m2, d[i]-m3
		q0 += d0 * d0
		q1 += d1 * d1
		q2 += d2 * d2
		q3 += d3 * d3
	}
	inv := func(q float64) float64 { return 1 / math.Sqrt(q/fm+eps) }
	return [4]float64{m0, m1, m2, m3}, [4]float64{inv(q0), inv(q1), inv(q2), inv(q3)}
}

// Backward implements Layer. Each channel's Gamma.Grad and Beta.Grad gain
// their terms in locals: the same additions in the same order.
func (g *GroupNorm) Backward(grad *Tensor) *Tensor {
	mustHaveTrained(g.train, "GroupNorm")
	x := g.x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	spatial := h * w
	chPerGroup := g.C / g.Groups
	groupLen := chPerGroup * spatial
	m := float64(groupLen)
	dx := g.dx.ensure(x.Shape...)
	gGamma, gBeta := g.Gamma.grads(), g.Beta.grads()

	for seg, inv := range g.invSD[:n*g.Groups] {
		gi, off := seg%g.Groups, seg*groupLen
		gr, xhat, d := grad.Data[off:][:groupLen], g.xhat[off:][:groupLen], dx.Data[off:][:groupLen]
		// dxhat = dy * gamma; need sum(dxhat) and sum(dxhat * xhat).
		var sumD, sumDX float64
		for c := 0; c < chPerGroup; c++ {
			ch := gi*chPerGroup + c
			gamma, dGamma, dBeta := g.Gamma.Data[ch], gGamma[ch], gBeta[ch]
			for i := c * spatial; i < (c+1)*spatial; i++ {
				dxh := gr[i] * gamma
				sumD += dxh
				sumDX += dxh * xhat[i]
				// Accumulate affine gradients in the same pass.
				dGamma += gr[i] * xhat[i]
				dBeta += gr[i]
			}
			gGamma[ch], gBeta[ch] = dGamma, dBeta
		}
		scale := inv / m
		for c := 0; c < chPerGroup; c++ {
			gamma := g.Gamma.Data[gi*chPerGroup+c]
			for i := c * spatial; i < (c+1)*spatial; i++ {
				d[i] = scale * (m*(gr[i]*gamma) - sumD - xhat[i]*sumDX)
			}
		}
	}
	return dx
}

// Params implements Layer.
func (g *GroupNorm) Params() []*Param { return []*Param{g.Gamma, g.Beta} }
