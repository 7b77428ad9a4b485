// Package nn is a small neural-network library with manual backpropagation.
// It stands in for the paper's PyTorch dependency: dense, convolutional,
// group-norm, embedding, and LSTM layers cover the four model families the
// paper trains (CNNs, a stacked LSTM, matrix factorization, and fully
// connected heads). Every layer's gradients are verified against numerical
// differentiation in the test suite.
//
// Decentralized learning code treats models as flat parameter vectors; the
// Trainable interface exposes exactly that view plus minibatch training and
// evaluation.
package nn

import "fmt"

// Tensor is a dense row-major float64 tensor. The first dimension is always
// the batch dimension.
type Tensor struct {
	Data  []float64
	Shape []int
}

// NewTensor allocates a zero tensor with the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("nn: non-positive tensor dimension in %v", shape))
		}
		n *= s
	}
	return &Tensor{Data: make([]float64, n), Shape: append([]int(nil), shape...)}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Batch returns the leading (batch) dimension.
func (t *Tensor) Batch() int { return t.Shape[0] }

// alias points t at src's data under the given shape, reusing t's shape
// storage: a reshaped view in a header the caller keeps, which allocates
// nothing once the header has held as many dimensions.
func (t *Tensor) alias(src *Tensor, shape ...int) *Tensor {
	t.Data = src.Data
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Data: make([]float64, len(t.Data)), Shape: append([]int(nil), t.Shape...)}
	copy(out.Data, t.Data)
	return out
}

// tscratch is a reusable tensor backed by a buffer grown on demand. A layer's
// workspace state holds one per direction (forward output, backward
// gradient) so steady-state training allocates nothing: ensure reshapes in
// place and only allocates when the required element count outgrows the
// buffer.
type tscratch struct{ t Tensor }

// ensure shapes the scratch tensor without clearing it. Callers must
// overwrite every element.
func (s *tscratch) ensure(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Format a copy: handing shape itself to fmt would make every
			// caller's variadic slice escape to the heap.
			panic(fmt.Sprintf("nn: non-positive tensor dimension in %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	grow(&s.t.Data, n)
	s.t.Shape = append(s.t.Shape[:0], shape...)
	return &s.t
}

// ensureZero shapes the scratch tensor and clears it, for layers that
// accumulate into their output.
func (s *tscratch) ensureZero(shape ...int) *Tensor {
	t := s.ensure(shape...)
	clear(t.Data)
	return t
}

// grow reslices *buf to length n, reallocating only when its capacity is
// short, and returns it. A recycled buffer keeps its last user's values: the
// caller writes every element before reading any.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// mustHaveTrained panics unless the named layer's last Forward ran in training
// mode: otherwise its caches hold whatever a recycled workspace left in them.
func mustHaveTrained(train bool, layer string) {
	if !train {
		panic("nn: " + layer + ".Backward after Forward(x, false): its caches were not written")
	}
}

// allOnes is a mask of ones where b holds and of zeros where it does not: a
// selection on bit patterns in place of a branch a coin-flip b mispredicts.
func allOnes(b bool) uint64 {
	var m uint64
	if b {
		m = ^uint64(0)
	}
	return m
}

// Param is one learnable parameter block with its gradient accumulator.
// Within Classifier.TrainBatch, Grad points into the call's workspace, and
// it is nil between calls; a parameter of a layer driven directly gets a
// Grad of its own on its first ZeroGrad or Backward.
type Param struct {
	Name string
	Data []float64
	Grad []float64
}

// newParam allocates a named parameter of size n, without a gradient.
func newParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float64, n)}
}

// grads returns Grad, making it first when no call has pointed it anywhere.
func (p *Param) grads() []float64 {
	if p.Grad == nil {
		p.Grad = make([]float64, len(p.Data))
	}
	return p.Grad
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { clear(p.grads()) }

// Layer is a differentiable module. Forward caches whatever Backward needs;
// a Layer instance is therefore stateful and must not be shared across
// concurrent nodes (each DL node builds its own model). Within a Classifier
// call the caches and returned tensors live in the call's workspace and are
// valid until the call returns; a layer driven directly keeps a state of its
// own, valid until its next Forward/Backward call.
type Layer interface {
	// Forward computes the layer output, the same bits in either mode; with
	// train unset a layer may skip the caches Backward reads.
	Forward(x *Tensor, train bool) *Tensor
	// Backward consumes the gradient of the loss w.r.t. the layer output and
	// returns the gradient w.r.t. the layer input, accumulating parameter
	// gradients along the way. It must be called after Forward(x, true); a
	// layer that skipped its caches panics rather than read stale ones.
	Backward(grad *Tensor) *Tensor
	// Params returns the learnable parameters (possibly empty).
	Params() []*Param
}
