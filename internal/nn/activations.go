package nn

import (
	"math"

	"repro/internal/vec"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	mask    []bool
	out, dx tscratch
}

var _ Layer = (*ReLU)(nil)

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor, _ bool) *Tensor {
	y := r.out.ensure(x.Shape...)
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	r.mask = r.mask[:len(y.Data)]
	mask, out := r.mask, y.Data[:len(x.Data)]
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

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	y       []float64
	out, dx tscratch
}

var _ Layer = (*Tanh)(nil)

// Forward implements Layer.
func (t *Tanh) Forward(x *Tensor, _ bool) *Tensor {
	y := t.out.ensure(x.Shape...)
	for i, v := range x.Data {
		y.Data[i] = math.Tanh(v)
	}
	t.y = y.Data
	return y
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *Tensor) *Tensor {
	dx := t.dx.ensure(grad.Shape...)
	for i, g := range grad.Data {
		dx.Data[i] = g * (1 - t.y[i]*t.y[i])
	}
	return dx
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Sigmoid is the logistic activation.
type Sigmoid struct {
	y       []float64
	out, dx tscratch
}

var _ Layer = (*Sigmoid)(nil)

// Forward implements Layer.
func (s *Sigmoid) Forward(x *Tensor, _ bool) *Tensor {
	y := s.out.ensure(x.Shape...)
	for i, v := range x.Data {
		y.Data[i] = 1 / (1 + math.Exp(-v))
	}
	s.y = y.Data
	return y
}

// Backward implements Layer.
func (s *Sigmoid) Backward(grad *Tensor) *Tensor {
	dx := s.dx.ensure(grad.Shape...)
	for i, g := range grad.Data {
		dx.Data[i] = g * s.y[i] * (1 - s.y[i])
	}
	return dx
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Dropout zeroes activations with probability P at train time and scales the
// survivors by 1/(1-P) (inverted dropout). At eval time it is the identity.
type Dropout struct {
	P   float64
	rng *vec.RNG

	mask    []bool
	out, dx tscratch
}

var _ Layer = (*Dropout)(nil)

// NewDropout builds a dropout layer with drop probability p.
func NewDropout(p float64, rng *vec.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0, 1)")
	}
	return &Dropout{P: p, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *Tensor, train bool) *Tensor {
	if !train || d.P == 0 {
		d.mask = nil
		return x
	}
	y := d.out.ensure(x.Shape...)
	if cap(d.mask) < len(y.Data) {
		d.mask = make([]bool, len(y.Data))
	}
	d.mask = d.mask[:len(y.Data)]
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			d.mask[i] = false
			y.Data[i] = 0
		} else {
			d.mask[i] = true
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *Tensor) *Tensor {
	if d.mask == nil {
		return grad
	}
	dx := d.dx.ensure(grad.Shape...)
	scale := 1 / (1 - d.P)
	for i, g := range grad.Data {
		if d.mask[i] {
			dx.Data[i] = g * scale
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }
