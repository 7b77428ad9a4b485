package nn

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// numericalGradCheck verifies analytic parameter and input gradients of a
// network against central finite differences through a given loss.
func numericalGradCheck(t *testing.T, net *Sequential, lossFn Loss, x *Tensor, y []float64, tol float64) {
	t.Helper()
	const eps = 1e-5

	lossAt := func() float64 {
		out := net.Forward(x.Clone(), true)
		flat := logits2D(out, new(Tensor))
		loss, _ := lossFn.Compute(flat, y)
		return loss
	}

	// Analytic gradients.
	net.ZeroGrad()
	out := net.Forward(x.Clone(), true)
	flat := logits2D(out, new(Tensor))
	_, grad := lossFn.Compute(flat, y)
	dx := net.Backward(FromData(grad.Data, out.Shape...))

	// Parameter gradients.
	for _, p := range net.Params() {
		for _, i := range sampleIndices(len(p.Data), 12) {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			up := lossAt()
			p.Data[i] = orig - eps
			down := lossAt()
			p.Data[i] = orig
			want := (up - down) / (2 * eps)
			got := p.Grad[i]
			if !gradClose(got, want, tol) {
				t.Errorf("param %s[%d]: analytic %v numeric %v", p.Name, i, got, want)
			}
		}
	}

	// Input gradients (skip integer-id inputs, which have no gradient).
	if dx != nil && len(dx.Data) == len(x.Data) && !isIDInput(net) {
		for _, i := range sampleIndices(len(x.Data), 8) {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			up := lossAt()
			x.Data[i] = orig - eps
			down := lossAt()
			x.Data[i] = orig
			want := (up - down) / (2 * eps)
			got := dx.Data[i]
			if !gradClose(got, want, tol) {
				t.Errorf("input[%d]: analytic %v numeric %v", i, got, want)
			}
		}
	}
}

func isIDInput(net *Sequential) bool {
	if len(net.Layers) == 0 {
		return false
	}
	_, ok := net.Layers[0].(*Embedding)
	return ok
}

func gradClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// sampleIndices returns up to k deterministic probe indices spread over [0, n).
func sampleIndices(n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

func randInput(rng *vec.RNG, shape ...int) *Tensor {
	x := NewTensor(shape...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func classTargets(rng *vec.RNG, m, classes int) []float64 {
	y := make([]float64, m)
	for i := range y {
		y[i] = float64(rng.Intn(classes))
	}
	return y
}

func TestGradCheckDense(t *testing.T) {
	rng := vec.NewRNG(101)
	net := NewSequential(NewDense(7, 5, rng))
	x := randInput(rng, 3, 7)
	numericalGradCheck(t, net, SoftmaxCrossEntropy{}, x, classTargets(rng, 3, 5), 1e-4)
}

func TestGradCheckDenseMSE(t *testing.T) {
	rng := vec.NewRNG(102)
	net := NewSequential(NewDense(4, 1, rng))
	x := randInput(rng, 5, 4)
	y := make([]float64, 5)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	numericalGradCheck(t, net, MSE{}, x, y, 1e-4)
}

func TestGradCheckMLP(t *testing.T) {
	rng := vec.NewRNG(103)
	net := NewSequential(
		NewDense(6, 8, rng),
		&ReLU{},
		NewDense(8, 4, rng),
		&ReLU{},
		NewDense(4, 3, rng),
	)
	x := randInput(rng, 4, 6)
	numericalGradCheck(t, net, SoftmaxCrossEntropy{}, x, classTargets(rng, 4, 3), 1e-4)
}

func TestGradCheckConv(t *testing.T) {
	rng := vec.NewRNG(105)
	net := NewSequential(
		NewConv2D(2, 3, 3, 1, rng),
		&ReLU{},
		&Flatten{},
		NewDense(3*6*6, 4, rng),
	)
	x := randInput(rng, 2, 2, 6, 6)
	numericalGradCheck(t, net, SoftmaxCrossEntropy{}, x, classTargets(rng, 2, 4), 1e-4)
}

func TestGradCheckConvNoPad(t *testing.T) {
	rng := vec.NewRNG(106)
	net := NewSequential(
		NewConv2D(1, 2, 3, 0, rng),
		&Flatten{},
		NewDense(2*4*4, 3, rng),
	)
	x := randInput(rng, 2, 1, 6, 6)
	numericalGradCheck(t, net, SoftmaxCrossEntropy{}, x, classTargets(rng, 2, 3), 1e-4)
}

func TestGradCheckMaxPool(t *testing.T) {
	rng := vec.NewRNG(107)
	net := NewSequential(
		NewConv2D(1, 2, 3, 1, rng),
		NewMaxPool2D(2),
		&Flatten{},
		NewDense(2*3*3, 3, rng),
	)
	x := randInput(rng, 2, 1, 6, 6)
	numericalGradCheck(t, net, SoftmaxCrossEntropy{}, x, classTargets(rng, 2, 3), 1e-4)
}

func TestGradCheckGroupNorm(t *testing.T) {
	rng := vec.NewRNG(108)
	net := NewSequential(
		NewConv2D(2, 4, 3, 1, rng),
		NewGroupNorm(4, 2),
		&ReLU{},
		&Flatten{},
		NewDense(4*4*4, 3, rng),
	)
	x := randInput(rng, 2, 2, 4, 4)
	numericalGradCheck(t, net, SoftmaxCrossEntropy{}, x, classTargets(rng, 2, 3), 2e-4)
}

func TestGradCheckGNLeNetTiny(t *testing.T) {
	rng := vec.NewRNG(109)
	clf := NewGNLeNet(ModelConfig{Channels: 1, Height: 8, Width: 8, Classes: 3, WidthScale: 8}, rng)
	x := randInput(rng, 2, 1, 8, 8)
	numericalGradCheck(t, clf.Net, SoftmaxCrossEntropy{}, x, classTargets(rng, 2, 3), 2e-4)
}

func TestGradCheckEmbedding(t *testing.T) {
	rng := vec.NewRNG(110)
	net := NewSequential(
		NewEmbedding(10, 4, rng),
		&Flatten{},
		NewDense(3*4, 5, rng),
	)
	x := NewTensor(2, 3)
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(10))
	}
	numericalGradCheck(t, net, SoftmaxCrossEntropy{}, x, classTargets(rng, 2, 5), 1e-4)
}

func TestGradCheckLSTM(t *testing.T) {
	rng := vec.NewRNG(111)
	net := NewSequential(NewLSTM(3, 5, rng), &seqDense{Dense: NewDense(5, 4, rng)})
	x := randInput(rng, 2, 6, 3)
	// Per-position targets: 2*6 = 12.
	numericalGradCheck(t, net, SoftmaxCrossEntropy{}, x, classTargets(rng, 12, 4), 2e-4)
}

func TestGradCheckStackedLSTMWithEmbedding(t *testing.T) {
	rng := vec.NewRNG(112)
	clf := NewCharLSTM(CharLSTMConfig{Vocab: 8, Embed: 3, Hidden: 4, Layers: 2}, rng)
	x := NewTensor(2, 5)
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(8))
	}
	numericalGradCheck(t, clf.Net, SoftmaxCrossEntropy{}, x, classTargets(rng, 10, 8), 3e-4)
}
