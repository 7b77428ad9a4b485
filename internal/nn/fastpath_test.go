package nn

import (
	"math"
	"strings"
	"testing"

	"repro/internal/vec"
)

// oddValues are the inputs a branch-free selection can get wrong: both zeros,
// infinities, NaN, the smallest and largest magnitudes.
var oddValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// paramGrads flattens every parameter gradient of a network.
func paramGrads(ps []*Param) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.Grad...)
	}
	return out
}

// TestBackwardParamsMatchesBackward: a training step asks the first layer for
// its parameter gradients only. They must be Backward's bit for bit — for the
// 5×5 kernels that drop the input half, for kernel sizes that keep it, for a
// first layer that cannot tell the two apart, and on top of gradients already
// accumulated.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	builds := map[string]func() (*Sequential, *Tensor){
		"conv5": func() (*Sequential, *Tensor) {
			return NewSequential(NewConv2D(3, 6, 5, 2, vec.NewRNG(5))), NewTensor(2, 3, 9, 7)
		},
		"conv3": func() (*Sequential, *Tensor) {
			return NewSequential(NewConv2D(2, 4, 3, 1, vec.NewRNG(6))), NewTensor(2, 2, 6, 5)
		},
		"gnlenet": func() (*Sequential, *Tensor) {
			m := NewGNLeNet(ModelConfig{Channels: 3, Height: 16, Width: 16, Classes: 10, WidthScale: 4}, vec.NewRNG(7))
			return m.Net, NewTensor(4, 3, 16, 16)
		},
		"dense-first": func() (*Sequential, *Tensor) {
			rng := vec.NewRNG(8)
			return NewSequential(NewDense(12, 7, rng), &ReLU{}, NewDense(7, 3, rng)), NewTensor(5, 12)
		},
		"empty": func() (*Sequential, *Tensor) { return NewSequential(), NewTensor(2, 3) },
	}
	forEachConvPath(t, func(t *testing.T) {
		for name, build := range builds {
			full, x := build()
			params, _ := build()
			rng := vec.NewRNG(9)
			for pass := 0; pass < 2; pass++ { // the second pass adds to the first's gradients
				fillSigned(x.Data, rng)
				out := full.Forward(x, true)
				params.Forward(x, true)
				grad := NewTensor(out.Shape...)
				fillSigned(grad.Data, rng)
				if dx := full.Backward(grad); !sameShape(dx.Shape, x.Shape) {
					t.Fatalf("%s: Backward returned shape %v, input is %v", name, dx.Shape, x.Shape)
				}
				params.backwardParams(grad)
				if i := firstBitDiff(paramGrads(params.Params()), paramGrads(full.Params())); i >= 0 {
					t.Fatalf("%s pass %d: parameter gradient %d differs from Backward's", name, pass, i)
				}
			}
		}
	})
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReLUMatchesDefinition holds the branch-free passes to the definition
// they replaced, bit for bit: v where v > 0, +0 otherwise, in both modes, and
// the gradient where v > 0, +0 otherwise.
func TestReLUMatchesDefinition(t *testing.T) {
	rng := vec.NewRNG(21)
	x := NewTensor(3, 67)
	fillSigned(x.Data, rng)
	copy(x.Data, oddValues)
	grad := NewTensor(x.Shape...)
	fillSigned(grad.Data, rng)
	copy(grad.Data[3:], oddValues)
	r := &ReLU{}
	for _, train := range []bool{false, true} { // training mode last: Backward needs it
		y := r.Forward(x, train)
		for i, v := range x.Data {
			var want float64
			if v > 0 {
				want = v
			}
			if math.Float64bits(y.Data[i]) != math.Float64bits(want) {
				t.Fatalf("train=%v: ReLU(%v) = %v (bits %#x), want %v", train, v, y.Data[i], math.Float64bits(y.Data[i]), want)
			}
		}
	}
	dx := r.Backward(grad)
	for i, v := range x.Data {
		var wantDX float64
		if v > 0 {
			wantDX = grad.Data[i]
		}
		if math.Float64bits(dx.Data[i]) != math.Float64bits(wantDX) && !(math.IsNaN(dx.Data[i]) && math.IsNaN(wantDX)) {
			t.Fatalf("ReLU'(%v) of %v = %v, want %v", v, grad.Data[i], dx.Data[i], wantDX)
		}
	}
}

// refMaxPool is the window loop every MaxPool2D size ran before the 2×2 path:
// start from the window's first element, first maximum wins.
func refMaxPool(x *Tensor, k int) (out []float64, argmax []int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/k, w/k
	for p := 0; p < n*c; p++ {
		base := p * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := base + oy*k*w + ox*k
				best := x.Data[bestIdx]
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						i := base + (oy*k+ky)*w + ox*k + kx
						if v := x.Data[i]; v > best {
							best, bestIdx = v, i
						}
					}
				}
				out, argmax = append(out, best), append(argmax, bestIdx)
			}
		}
	}
	return out, argmax
}

// TestMaxPoolMatchesWindowLoop: the 2×2 path (and the general one, at 3)
// pools the same values in both modes and routes gradients to the same pixels
// as the window loop, on random planes, on planes full of ties, and with
// non-finite values in every position of a window.
func TestMaxPoolMatchesWindowLoop(t *testing.T) {
	rng := vec.NewRNG(31)
	for _, k := range []int{2, 3} {
		for trial := 0; trial < 20; trial++ {
			x := NewTensor(1+rng.Intn(3), 1+rng.Intn(4), k*(1+rng.Intn(5)), k*(1+rng.Intn(6)))
			switch trial % 3 {
			case 0:
				fillNormal(x.Data, rng)
			case 1: // ties: few distinct values, signed zeros among them
				for i := range x.Data {
					x.Data[i] = []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
				}
			case 2:
				for i := range x.Data {
					x.Data[i] = oddValues[rng.Intn(len(oddValues))]
				}
			}
			m := NewMaxPool2D(k)
			want, argmax := refMaxPool(x, k)
			var y *Tensor
			for _, train := range []bool{false, true} { // training mode last: Backward needs it
				y = m.Forward(x, train)
				if i := firstBitDiff(y.Data, want); i >= 0 {
					t.Fatalf("k=%d trial %d train=%v: out[%d] = %v, window loop %v", k, trial, train, i, y.Data[i], want[i])
				}
			}
			grad := NewTensor(y.Shape...)
			fillNormal(grad.Data, rng)
			wantDX := make([]float64, x.Len())
			for i, g := range grad.Data {
				wantDX[argmax[i]] += g
			}
			if i := firstBitDiff(m.Backward(grad).Data, wantDX); i >= 0 {
				t.Fatalf("k=%d trial %d: dx[%d] differs: the argmax moved", k, trial, i)
			}
		}
	}
}

// TestEvalForwardMatchesTrainForward: skipping the caches changes no output.
// For every architecture the zoo builds, Forward(x, false) gives the bits of
// Forward(x, true), and EvalBatch the loss, correct count and count that a
// training-mode forward pass scores.
func TestEvalForwardMatchesTrainForward(t *testing.T) {
	for _, zc := range zooCases() {
		m := zc.build()
		x, y := zc.batch(vec.NewRNG(72), 5)
		trained := m.Net.Forward(x, true).Clone()
		if i := firstBitDiff(m.Net.Forward(x, false).Data, trained.Data); i >= 0 {
			t.Fatalf("%s: eval-mode output %d differs from the training-mode one", zc.name, i)
		}
		flat := logits2D(trained, &Tensor{})
		loss, _ := m.LossFn.Compute(flat, y)
		rows, correct := flat.Shape[0], 0
		for i := 0; i < rows; i++ {
			if Argmax(flat, i) == int(y[i]) {
				correct++
			}
		}
		gotLoss, gotCorrect, gotCount := m.EvalBatch(x, y)
		if math.Float64bits(gotLoss) != math.Float64bits(loss*float64(rows)) || gotCorrect != correct || gotCount != rows {
			t.Fatalf("%s: EvalBatch = (%v, %d, %d), a training-mode forward scores (%v, %d, %d)",
				zc.name, gotLoss, gotCorrect, gotCount, loss*float64(rows), correct, rows)
		}
	}
}

// TestBackwardAfterEvalForwardPanics: the layers whose evaluation-mode Forward
// skips Backward's caches refuse a Backward after one, naming themselves,
// instead of reading what another call left in a recycled workspace; after a
// training-mode Forward the same Backward runs.
func TestBackwardAfterEvalForwardPanics(t *testing.T) {
	x := NewTensor(2, 4, 4, 6)
	fillSigned(x.Data, vec.NewRNG(73))
	layers := map[string]Layer{"GroupNorm": NewGroupNorm(4, 2), "ReLU": &ReLU{}, "MaxPool2D": NewMaxPool2D(2)}
	for name, l := range layers {
		g := NewTensor(l.Forward(x, true).Shape...)
		l.Backward(g)
		l.Forward(x, false)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, name+".Backward") {
					t.Errorf("%s: Backward after Forward(x, false) panicked with %q, want a panic naming the layer", name, msg)
				}
			}()
			l.Backward(g)
		}()
	}
}
