package nn

import "math"

// ReLU is the rectified linear activation.
type ReLU struct{ *reluState }

// reluState is a ReLU's call state.
type reluState struct {
	mask    []bool
	train   bool // the last Forward wrote mask
	out, dx tscratch
}

var _ Layer = (*ReLU)(nil)

func (r *ReLU) attach(w *workspace) { r.reluState = takeState[reluState](w) }

// Forward implements Layer. In evaluation mode it writes no mask.
func (r *ReLU) Forward(x *Tensor, train bool) *Tensor {
	y := own(&r.reluState).out.ensure(x.Shape...)
	r.train = train
	out := y.Data[:len(x.Data)]
	var mask []bool
	if train {
		mask = grow(&r.mask, len(out))
	}
	for i, v := range x.Data {
		// The sign of an activation is a coin flip, so the selection is
		// done on the bit pattern rather than with a branch to mispredict:
		// v where v > 0, +0 everywhere else (negatives, -0 and NaN).
		pos := v > 0
		if train {
			mask[i] = pos
		}
		out[i] = math.Float64frombits(math.Float64bits(v) & allOnes(pos))
	}
	return y
}

// Backward implements Layer: g where the input was positive, +0 elsewhere,
// selected on bit patterns as Forward selects.
func (r *ReLU) Backward(grad *Tensor) *Tensor {
	mustHaveTrained(r.train, "ReLU")
	dx := r.dx.ensure(grad.Shape...)
	out, mask := dx.Data[:len(grad.Data)], r.mask[:len(grad.Data)]
	for i, g := range grad.Data {
		out[i] = math.Float64frombits(math.Float64bits(g) & allOnes(mask[i]))
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }
