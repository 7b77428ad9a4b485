package nn

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Embedding maps integer token ids to dense vectors. Input tensors carry ids
// as float64 values (the tensor type is shared across layers); ids must be
// integral and in [0, Vocab). Input [N, T] maps to output [N, T, Dim].
// Ids receive no gradient: Backward returns a zero tensor of the input shape.
type Embedding struct {
	Vocab, Dim int
	W          *Param

	*embedState
}

// embedState is an Embedding's call state.
type embedState struct {
	ids     []int
	inShape []int
	out, dx tscratch
}

var _ Layer = (*Embedding)(nil)

func (e *Embedding) attach(w *workspace) { e.embedState = takeState[embedState](w) }

// NewEmbedding builds an embedding table with N(0, 1/sqrt(Dim)) init.
func NewEmbedding(vocab, dim int, rng *vec.RNG) *Embedding {
	e := &Embedding{
		Vocab: vocab,
		Dim:   dim,
		W:     newParam(fmt.Sprintf("embed_%dx%d.w", vocab, dim), vocab*dim),
	}
	sd := 1 / math.Sqrt(float64(dim))
	for i := range e.W.Data {
		e.W.Data[i] = rng.NormFloat64() * sd
	}
	return e
}

// Forward implements Layer. x must be [N, T] of integral ids.
func (e *Embedding) Forward(x *Tensor, _ bool) *Tensor {
	if len(x.Shape) != 2 {
		panic(fmt.Sprintf("nn: Embedding expects [N, T], got %v", x.Shape))
	}
	n, t := x.Shape[0], x.Shape[1]
	own(&e.embedState)
	e.inShape = append(e.inShape[:0], x.Shape...)
	grow(&e.ids, n*t)
	y := e.out.ensure(n, t, e.Dim)
	for i, f := range x.Data {
		id := int(f)
		if id < 0 || id >= e.Vocab {
			panic(fmt.Sprintf("nn: embedding id %d out of range [0, %d)", id, e.Vocab))
		}
		e.ids[i] = id
		copy(y.Data[i*e.Dim:(i+1)*e.Dim], e.W.Data[id*e.Dim:(id+1)*e.Dim])
	}
	return y
}

// Backward implements Layer.
func (e *Embedding) Backward(grad *Tensor) *Tensor {
	gw := e.W.grads()
	for i, id := range e.ids {
		g := grad.Data[i*e.Dim : (i+1)*e.Dim]
		w := gw[id*e.Dim : (id+1)*e.Dim]
		for k, v := range g {
			w[k] += v
		}
	}
	return e.dx.ensureZero(e.inShape...)
}

// Params implements Layer.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }
