package nn

import "math"

// ReLU is the rectified linear activation.
type ReLU struct{ *reluState }

// reluState is a ReLU's call state.
type reluState struct {
	mask    []bool
	out, dx tscratch
}

var _ Layer = (*ReLU)(nil)

func (r *ReLU) attach(w *workspace) { r.reluState = takeState[reluState](w) }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor, _ bool) *Tensor {
	y := own(&r.reluState).out.ensure(x.Shape...)
	mask, out := grow(&r.mask, len(y.Data)), y.Data[:len(x.Data)]
	for i, v := range x.Data {
		// The sign of an activation is a coin flip, so the selection is
		// done on the bit pattern rather than with a branch to mispredict:
		// v where v > 0, +0 everywhere else (negatives, -0 and NaN).
		pos := v > 0
		var keep uint64
		if pos {
			keep = ^uint64(0)
		}
		mask[i] = pos
		out[i] = math.Float64frombits(math.Float64bits(v) & keep)
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *Tensor) *Tensor {
	dx := r.dx.ensure(grad.Shape...)
	for i, g := range grad.Data {
		if r.mask[i] {
			dx.Data[i] = g
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }
