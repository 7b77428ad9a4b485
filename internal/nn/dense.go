package nn

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Dense is a fully connected layer: y = x W^T + b with W shaped [out][in].
type Dense struct {
	In, Out int
	W       *Param
	B       *Param

	*denseState
}

// denseState is a Dense layer's call state.
type denseState struct {
	x       *Tensor // cached input
	out, dx tscratch
}

var _ Layer = (*Dense)(nil)

func (d *Dense) attach(w *workspace) { d.denseState = takeState[denseState](w) }

// NewDense builds a dense layer with He-uniform initialization.
func NewDense(in, out int, rng *vec.RNG) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   newParam(fmt.Sprintf("dense_%dx%d.w", out, in), in*out),
		B:   newParam(fmt.Sprintf("dense_%dx%d.b", out, in), out),
	}
	bound := math.Sqrt(6.0 / float64(in))
	for i := range d.W.Data {
		d.W.Data[i] = (2*rng.Float64() - 1) * bound
	}
	return d
}

// Forward implements Layer. x must be [N, In].
func (d *Dense) Forward(x *Tensor, _ bool) *Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: Dense expects [N, %d], got %v", d.In, x.Shape))
	}
	own(&d.denseState).x = x
	n := x.Shape[0]
	y := d.out.ensure(n, d.Out)
	w := d.W.Data
	b := d.B.Data
	for i := 0; i < n; i++ {
		xi := x.Data[i*d.In : (i+1)*d.In]
		yi := y.Data[i*d.Out : (i+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			row := w[o*d.In : (o+1)*d.In]
			var s float64
			for k, xv := range xi {
				s += row[k] * xv
			}
			yi[o] = s + b[o]
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(grad *Tensor) *Tensor {
	x := d.x
	n := x.Shape[0]
	dx := d.dx.ensureZero(n, d.In)
	w := d.W.Data
	gw := d.W.grads()
	gb := d.B.grads()
	for i := 0; i < n; i++ {
		xi := x.Data[i*d.In : (i+1)*d.In]
		gi := grad.Data[i*d.Out : (i+1)*d.Out]
		dxi := dx.Data[i*d.In : (i+1)*d.In]
		for o := 0; o < d.Out; o++ {
			g := gi[o]
			if g == 0 {
				continue
			}
			gb[o] += g
			row := w[o*d.In : (o+1)*d.In]
			growRow := gw[o*d.In : (o+1)*d.In]
			for k, xv := range xi {
				growRow[k] += g * xv
				dxi[k] += g * row[k]
			}
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Flatten reshapes [N, ...] to [N, prod(...)]. It has no parameters. The
// returned tensors are reused header views over the input's data.
type Flatten struct {
	inShape []int
	view    Tensor // reused flattened view (aliases the input's data)
	back    Tensor // reused gradient view
}

var _ Layer = (*Flatten)(nil)

// Forward implements Layer.
func (f *Flatten) Forward(x *Tensor, _ bool) *Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	return f.view.alias(x, x.Shape[0], x.Len()/x.Shape[0])
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *Tensor) *Tensor { return f.back.alias(grad, f.inShape...) }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
