package nn

import "fmt"

// Sequential chains layers. It also implements the flat-parameter-vector view
// that all decentralized learning algorithms in this repository operate on.
type Sequential struct {
	Layers []Layer

	params     []*Param
	paramCount int
}

// NewSequential builds a network from layers in order.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{Layers: layers}
	for _, l := range layers {
		for _, p := range l.Params() {
			s.params = append(s.params, p)
			s.paramCount += len(p.Data)
		}
	}
	return s
}

// Forward runs all layers in order.
func (s *Sequential) Forward(x *Tensor, train bool) *Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs all layers in reverse, accumulating parameter gradients, and
// returns the gradient with respect to the network input.
func (s *Sequential) Backward(grad *Tensor) *Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// paramBackward is a Layer that can accumulate its parameter gradients without
// computing the gradient with respect to its input.
type paramBackward interface {
	backwardParams(grad *Tensor)
}

// backwardParams is Backward for callers that do not read the gradient with
// respect to the network input (a training step): the first layer is asked
// for its parameter gradients only, when it can tell the two apart. Parameter
// gradients are exactly Backward's.
func (s *Sequential) backwardParams(grad *Tensor) {
	for i := len(s.Layers) - 1; i > 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	if len(s.Layers) == 0 {
		return
	}
	if first, ok := s.Layers[0].(paramBackward); ok {
		first.backwardParams(grad)
		return
	}
	s.Layers[0].Backward(grad)
}

// Params returns all parameters in deterministic layer order.
func (s *Sequential) Params() []*Param { return s.params }

// ZeroGrad clears all parameter gradients.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters.
func (s *Sequential) ParamCount() int { return s.paramCount }

// CopyParams writes the flat parameter vector into dst, which must have
// length ParamCount.
func (s *Sequential) CopyParams(dst []float64) {
	copyParamsOut(dst, s.params, s.paramCount)
}

// SetParams loads the flat parameter vector from src, which must have length
// ParamCount.
func (s *Sequential) SetParams(src []float64) {
	copyParamsIn(src, s.params, s.paramCount)
}

func copyParamsOut(dst []float64, params []*Param, count int) {
	if len(dst) != count {
		panic(fmt.Sprintf("nn: param vector length %d, want %d", len(dst), count))
	}
	off := 0
	for _, p := range params {
		copy(dst[off:off+len(p.Data)], p.Data)
		off += len(p.Data)
	}
}

func copyParamsIn(src []float64, params []*Param, count int) {
	if len(src) != count {
		panic(fmt.Sprintf("nn: param vector length %d, want %d", len(src), count))
	}
	off := 0
	for _, p := range params {
		copy(p.Data, src[off:off+len(p.Data)])
		off += len(p.Data)
	}
}
