package nn

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func TestDenseShapeValidation(t *testing.T) {
	rng := vec.NewRNG(300)
	d := NewDense(4, 2, rng)
	mustPanic(t, func() { d.Forward(NewTensor(3, 5), true) })
	mustPanic(t, func() { d.Forward(NewTensor(2, 2, 2), true) })
}

func TestConvShapeValidation(t *testing.T) {
	rng := vec.NewRNG(301)
	c := NewConv2D(3, 4, 3, 1, rng)
	mustPanic(t, func() { c.Forward(NewTensor(1, 2, 8, 8), true) }) // wrong channels
	mustPanic(t, func() { c.Forward(NewTensor(1, 3, 8), true) })    // wrong rank
	// Kernel larger than padded input must panic, not return garbage.
	tiny := NewConv2D(1, 1, 7, 0, rng)
	mustPanic(t, func() { tiny.Forward(NewTensor(1, 1, 3, 3), true) })
}

func TestMaxPoolValidation(t *testing.T) {
	p := NewMaxPool2D(2)
	mustPanic(t, func() { p.Forward(NewTensor(1, 1, 5, 4), true) }) // 5 not divisible
	mustPanic(t, func() { p.Forward(NewTensor(2, 3), true) })       // wrong rank
	mustPanic(t, func() { NewMaxPool2D(0) })
}

// TestMaxPoolNonFiniteWindow: a window that is all NaN or all -Inf (a diverged
// model) must not leave Backward without an argmax. The value propagates and
// the gradient lands inside the window.
func TestMaxPoolNonFiniteWindow(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(-1)} {
		p := NewMaxPool2D(2)
		// Two windows side by side: the left one non-finite, the right finite.
		x := FromData([]float64{
			v, v, 1, 4,
			v, v, 3, 2,
		}, 1, 1, 2, 4)
		y := p.Forward(x, true)
		if got := y.Data[0]; !(math.IsNaN(v) && math.IsNaN(got)) && got != v {
			t.Fatalf("window of %v pooled to %v", v, got)
		}
		if y.Data[1] != 4 {
			t.Fatalf("finite window pooled to %v, want 4", y.Data[1])
		}
		dx := p.Backward(FromData([]float64{5, 7}, 1, 1, 1, 2))
		want := []float64{5, 0, 0, 7, 0, 0, 0, 0}
		for i := range want {
			if dx.Data[i] != want[i] {
				t.Fatalf("window of %v: dx = %v, want %v", v, dx.Data, want)
			}
		}
	}
}

func TestGroupNormValidation(t *testing.T) {
	mustPanic(t, func() { NewGroupNorm(5, 2) }) // 5 % 2 != 0
	mustPanic(t, func() { NewGroupNorm(4, 0) })
	g := NewGroupNorm(4, 2)
	mustPanic(t, func() { g.Forward(NewTensor(1, 3, 2, 2), true) }) // wrong channels
}

func TestLSTMShapeValidation(t *testing.T) {
	rng := vec.NewRNG(302)
	l := NewLSTM(3, 4, rng)
	mustPanic(t, func() { l.Forward(NewTensor(2, 5), true) })    // wrong rank
	mustPanic(t, func() { l.Forward(NewTensor(2, 5, 7), true) }) // wrong feature dim
}

func TestEmbeddingShapeValidation(t *testing.T) {
	rng := vec.NewRNG(303)
	e := NewEmbedding(10, 4, rng)
	mustPanic(t, func() { e.Forward(NewTensor(2, 3, 4), true) }) // wrong rank
}

func TestSeqDenseShapes(t *testing.T) {
	rng := vec.NewRNG(304)
	clf := NewCharLSTM(CharLSTMConfig{Vocab: 6, Embed: 3, Hidden: 5, Layers: 1}, rng)
	x := NewTensor(2, 4)
	for i := range x.Data {
		x.Data[i] = float64(i % 6)
	}
	out := clf.Net.Forward(x, false)
	want := []int{2, 4, 6}
	for i, w := range want {
		if out.Shape[i] != w {
			t.Fatalf("char LSTM output shape %v, want %v", out.Shape, want)
		}
	}
}

func TestLossValidation(t *testing.T) {
	mustPanic(t, func() { SoftmaxCrossEntropy{}.Compute(NewTensor(2, 3), []float64{0}) })
	mustPanic(t, func() { SoftmaxCrossEntropy{}.Compute(NewTensor(2, 3), []float64{0, 9}) }) // class out of range
	mustPanic(t, func() { SoftmaxCrossEntropy{}.Compute(NewTensor(6), []float64{0}) })
	mustPanic(t, func() { MSE{}.Compute(NewTensor(2, 1), []float64{0}) })
}

func TestClassifierSequenceEval(t *testing.T) {
	rng := vec.NewRNG(305)
	clf := NewCharLSTM(CharLSTMConfig{Vocab: 4, Embed: 2, Hidden: 3, Layers: 1}, rng)
	x := NewTensor(2, 3)
	y := make([]float64, 6) // per-position targets
	loss, correct, total := clf.EvalBatch(x, y)
	if total != 6 {
		t.Fatalf("scored %d positions, want 6", total)
	}
	if loss <= 0 || correct < 0 || correct > total {
		t.Fatalf("odd eval results: loss=%v correct=%d", loss, correct)
	}
}

func TestMFValidation(t *testing.T) {
	rng := vec.NewRNG(306)
	mf := NewMatrixFactorization(3, 4, 2, rng)
	x := FromData([]float64{5, 0}, 1, 2) // user 5 out of range
	mustPanic(t, func() { mf.TrainBatch(x, []float64{3}, 0.1) })
}

func TestGNLeNetParamCountScalesDown(t *testing.T) {
	rng := vec.NewRNG(307)
	big := NewGNLeNet(ModelConfig{Channels: 3, Height: 16, Width: 16, Classes: 10, WidthScale: 1}, rng)
	small := NewGNLeNet(ModelConfig{Channels: 3, Height: 16, Width: 16, Classes: 10, WidthScale: 4}, rng)
	if small.ParamCount() >= big.ParamCount() {
		t.Fatalf("width scaling failed: %d >= %d", small.ParamCount(), big.ParamCount())
	}
}
