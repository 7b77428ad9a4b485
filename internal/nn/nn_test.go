package nn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

// FromData wraps data in a tensor of the given shape. The data is not copied.
func FromData(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("nn: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3)
	if x.Len() != 6 || x.Batch() != 2 || x.Dim(1) != 3 {
		t.Fatalf("tensor dims wrong: %+v", x)
	}
	x.Data[5] = 7
	y := x.Clone()
	y.Data[5] = 0
	if x.Data[5] != 7 {
		t.Fatal("Clone aliases data")
	}
	r := FromData(x.Data, 3, 2)
	if r.Data[5] != 7 {
		t.Fatal("FromData must share data")
	}
}

func TestTensorPanics(t *testing.T) {
	mustPanic(t, func() { NewTensor(2, 0) })
	mustPanic(t, func() { FromData([]float64{1, 2}, 3) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestParamVectorRoundTrip(t *testing.T) {
	rng := vec.NewRNG(200)
	net := NewSequential(
		NewDense(4, 8, rng),
		&ReLU{},
		NewDense(8, 3, rng),
	)
	n := net.ParamCount()
	if n != 4*8+8+8*3+3 {
		t.Fatalf("ParamCount = %d", n)
	}
	v := make([]float64, n)
	net.CopyParams(v)
	// Mutate the vector, load it, copy back out: must be identical.
	for i := range v {
		v[i] += 0.5
	}
	net.SetParams(v)
	v2 := make([]float64, n)
	net.CopyParams(v2)
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("round trip differs at %d: %v vs %v", i, v[i], v2[i])
		}
	}
}

func TestQuickParamVectorRoundTrip(t *testing.T) {
	rng := vec.NewRNG(201)
	net := NewSequential(NewDense(3, 4, rng), NewDense(4, 2, rng))
	n := net.ParamCount()
	f := func(seed uint64) bool {
		r := vec.NewRNG(seed)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		net.SetParams(v)
		out := make([]float64, n)
		net.CopyParams(out)
		for i := range v {
			if out[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over K classes must give loss log(K).
	pred := NewTensor(2, 4)
	loss, grad := SoftmaxCrossEntropy{}.Compute(pred, []float64{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want %v", loss, math.Log(4))
	}
	// Gradient rows sum to zero.
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += grad.Data[i*4+j]
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", i, s)
		}
	}
}

func TestMSEKnown(t *testing.T) {
	pred := FromData([]float64{1, 2}, 2, 1)
	loss, grad := MSE{}.Compute(pred, []float64{0, 0})
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("MSE = %v, want 2.5", loss)
	}
	if math.Abs(grad.Data[0]-1) > 1e-12 || math.Abs(grad.Data[1]-2) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestArgmax(t *testing.T) {
	pred := FromData([]float64{1, 5, 2, 9, 0, 3}, 2, 3)
	if Argmax(pred, 0) != 1 || Argmax(pred, 1) != 0 {
		t.Fatal("Argmax wrong")
	}
}

// TestMLPLearnsXOR trains on the XOR problem, which requires the hidden
// layer: passing proves forward, backward, and SGD work end to end.
func TestMLPLearnsXOR(t *testing.T) {
	rng := vec.NewRNG(202)
	clf := NewMLP(2, 8, 2, rng)
	x := FromData([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	y := []float64{0, 1, 1, 0}
	var loss float64
	for epoch := 0; epoch < 800; epoch++ {
		loss = clf.TrainBatch(x, y, 0.5)
	}
	if loss > 0.1 {
		t.Fatalf("XOR did not converge: loss %v", loss)
	}
	_, correct, total := clf.EvalBatch(x, y)
	if correct != total {
		t.Fatalf("XOR accuracy %d/%d", correct, total)
	}
}

// TestCNNLearnsToy trains the scaled GN-LeNet on a trivially separable
// image task (bright vs dark) to verify the conv stack optimizes.
func TestCNNLearnsToy(t *testing.T) {
	rng := vec.NewRNG(203)
	clf := NewGNLeNet(ModelConfig{Channels: 1, Height: 8, Width: 8, Classes: 2, WidthScale: 8}, rng)
	n := 16
	x := NewTensor(n, 1, 8, 8)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		label := i % 2
		y[i] = float64(label)
		for j := 0; j < 64; j++ {
			base := -0.5
			if label == 1 {
				base = 0.5
			}
			x.Data[i*64+j] = base + 0.1*rng.NormFloat64()
		}
	}
	var loss float64
	for epoch := 0; epoch < 60; epoch++ {
		loss = clf.TrainBatch(x, y, 0.1)
	}
	if loss > 0.2 {
		t.Fatalf("toy CNN did not converge: loss %v", loss)
	}
}

// TestLSTMLearnsCopy trains a small LSTM to predict the previous character
// (a one-step memory task).
func TestLSTMLearnsCopy(t *testing.T) {
	rng := vec.NewRNG(204)
	clf := NewCharLSTM(CharLSTMConfig{Vocab: 4, Embed: 4, Hidden: 16, Layers: 1}, rng)
	n, seq := 8, 6
	x := NewTensor(n, seq)
	y := make([]float64, n*seq)
	for i := 0; i < n; i++ {
		prev := 0
		for s := 0; s < seq; s++ {
			cur := rng.Intn(4)
			x.Data[i*seq+s] = float64(cur)
			y[i*seq+s] = float64(prev) // predict previous token
			prev = cur
		}
	}
	var loss float64
	for epoch := 0; epoch < 300; epoch++ {
		loss = clf.TrainBatch(x, y, 0.3)
	}
	if loss > 0.5 {
		t.Fatalf("LSTM copy task did not converge: loss %v", loss)
	}
}

func TestMatrixFactorizationLearns(t *testing.T) {
	rng := vec.NewRNG(205)
	users, items, k := 12, 15, 4
	mf := NewMatrixFactorization(users, items, k, rng)
	// Ground-truth low-rank ratings.
	gtU := make([]float64, users*k)
	gtI := make([]float64, items*k)
	for i := range gtU {
		gtU[i] = rng.NormFloat64()
	}
	for i := range gtI {
		gtI[i] = rng.NormFloat64()
	}
	var xs []float64
	var ys []float64
	for u := 0; u < users; u++ {
		for it := 0; it < items; it++ {
			var dot float64
			for kk := 0; kk < k; kk++ {
				dot += gtU[u*k+kk] * gtI[it*k+kk]
			}
			r := 3 + dot
			if r < 1 {
				r = 1
			}
			if r > 5 {
				r = 5
			}
			xs = append(xs, float64(u), float64(it))
			ys = append(ys, r)
		}
	}
	x := FromData(xs, len(ys), 2)
	var loss float64
	for epoch := 0; epoch < 400; epoch++ {
		loss = mf.TrainBatch(x, ys, 0.01)
	}
	if loss > 0.05 {
		t.Fatalf("MF did not fit low-rank ratings: loss %v", loss)
	}
	sumLoss, correct, total := mf.EvalBatch(x, ys)
	if total != len(ys) || correct < total*8/10 {
		t.Fatalf("MF eval: correct %d/%d, sumLoss %v", correct, total, sumLoss)
	}
}

func TestMFParamRoundTrip(t *testing.T) {
	rng := vec.NewRNG(206)
	mf := NewMatrixFactorization(3, 4, 2, rng)
	n := mf.ParamCount()
	if n != 3*2+4*2+3+4+1 {
		t.Fatalf("ParamCount = %d", n)
	}
	v := make([]float64, n)
	mf.CopyParams(v)
	v[0] = 42
	mf.SetParams(v)
	v2 := make([]float64, n)
	mf.CopyParams(v2)
	if v2[0] != 42 {
		t.Fatal("SetParams did not write through")
	}
}

func TestSGDMomentum(t *testing.T) {
	p := &Param{Name: "w", Data: []float64{1}, Grad: []float64{1}}
	opt := &SGD{Momentum: 0.9}
	opt.Step(0.1, []*Param{p})
	if math.Abs(p.Data[0]-0.9) > 1e-12 {
		t.Fatalf("after step 1: %v", p.Data[0])
	}
	p.Grad[0] = 1
	opt.Step(0.1, []*Param{p})
	// velocity = 0.9*1 + 1 = 1.9; p = 0.9 - 0.19 = 0.71.
	if math.Abs(p.Data[0]-0.71) > 1e-12 {
		t.Fatalf("after step 2: %v", p.Data[0])
	}
}

func TestEmbeddingOutOfRangePanics(t *testing.T) {
	rng := vec.NewRNG(208)
	e := NewEmbedding(5, 2, rng)
	x := FromData([]float64{7}, 1, 1)
	mustPanic(t, func() { e.Forward(x, true) })
}

func TestConvOutputShape(t *testing.T) {
	rng := vec.NewRNG(209)
	c := NewConv2D(3, 8, 5, 2, rng)
	x := NewTensor(2, 3, 16, 16)
	y := c.Forward(x, true)
	want := []int{2, 8, 16, 16}
	for i, w := range want {
		if y.Shape[i] != w {
			t.Fatalf("conv output shape %v, want %v", y.Shape, want)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewGNLeNet(ModelConfig{Channels: 1, Height: 8, Width: 8, Classes: 2, WidthScale: 8}, vec.NewRNG(5))
	b := NewGNLeNet(ModelConfig{Channels: 1, Height: 8, Width: 8, Classes: 2, WidthScale: 8}, vec.NewRNG(5))
	va := make([]float64, a.ParamCount())
	vb := make([]float64, b.ParamCount())
	a.CopyParams(va)
	b.CopyParams(vb)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("same-seed models differ")
		}
	}
}
