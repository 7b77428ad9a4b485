package nn

import (
	"fmt"
	"testing"

	"repro/internal/vec"
)

type convShape struct{ inC, outC, size int }

// convBenchShapes are the convolutions the image workloads run: the two
// GN-LeNet layers at the cifar Small scale and the first layer at the
// paper's width.
var convBenchShapes = []convShape{
	{3, 8, 16},
	{8, 8, 8},
	{3, 32, 32},
}

// leafBenchShapes are LEAF-CNN's two layers at the femnist Small scale.
var leafBenchShapes = []convShape{
	{1, 8, 16},
	{8, 16, 8},
}

// benchArms are the arms of every convolution benchmark, over equal weights
// and inputs in the same process, so they are a within-run A/B: "ref" is the
// reference loops of conv_ref_test.go, "portable" the Go kernels, "new" what
// this CPU selects (the vector path where it has AVX2, else "portable" again).
var benchArms = []string{"ref", "portable", "new"}

// portableArm turns the vector path off for the "portable" arm and returns
// the call that puts it back.
func portableArm(arm string) (restore func()) {
	setVectorPath(arm != "portable" && cpuAVX2)
	return func() { setVectorPath(cpuAVX2) }
}

// benchConvArms runs fn once per shape and arm.
func benchConvArms(b *testing.B, shapes []convShape, fn func(b *testing.B, l Layer, x, grad *Tensor)) {
	const batch = 8
	for _, s := range shapes {
		for _, arm := range benchArms {
			b.Run(fmt.Sprintf("%dto%d@%dx%d/%s", s.inC, s.outC, s.size, s.size, arm), func(b *testing.B) {
				defer portableArm(arm)()
				rng := vec.NewRNG(41)
				c := NewConv2D(s.inC, s.outC, 5, 2, rng)
				var l Layer = c
				if arm == "ref" {
					l = refConv2D{c}
				}
				x := NewTensor(batch, s.inC, s.size, s.size)
				grad := NewTensor(batch, s.outC, s.size, s.size)
				fillNormal(x.Data, rng)
				fillNormal(grad.Data, rng)
				fn(b, l, x, grad)
			})
		}
	}
}

func BenchmarkConv2DForward(b *testing.B) {
	benchConvArms(b, convBenchShapes, func(b *testing.B, l Layer, x, _ *Tensor) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Forward(x, true)
		}
	})
}

// timeBackward times l.Backward(grad) after one Forward.
func timeBackward(b *testing.B, l Layer, x, grad *Tensor) {
	l.Forward(x, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Backward(grad)
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	benchConvArms(b, convBenchShapes, timeBackward)
}

// BenchmarkConv2DKernelGrad times the half of the backward pass a training
// step runs on its first layer: backwardParams, the parameter gradients
// without the input gradient. The reference has no such half and runs both.
func BenchmarkConv2DKernelGrad(b *testing.B) {
	benchConvArms(b, convBenchShapes, func(b *testing.B, l Layer, x, grad *Tensor) {
		l.Forward(x, true)
		half := func(g *Tensor) { l.Backward(g) }
		if c, ok := l.(*Conv2D); ok {
			half = c.backwardParams
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			half(grad)
		}
	})
}

// BenchmarkConv2DBackwardSparse is Backward where the lanes have least to
// gain: LEAF-CNN puts ReLU and a 2×2 max-pool behind each convolution, so at
// most one output gradient in four is not an exact zero (one in eight here),
// and the portable kernels skip a zero for five taps at a time.
func BenchmarkConv2DBackwardSparse(b *testing.B) {
	benchConvArms(b, leafBenchShapes, func(b *testing.B, l Layer, x, grad *Tensor) {
		rng := vec.NewRNG(45)
		for i := range grad.Data {
			if rng.Intn(8) != 0 {
				grad.Data[i] = 0
			}
		}
		timeBackward(b, l, x, grad)
	})
}

// benchGNLeNetArms builds GN-LeNet at the cifar Small shape once per arm (the
// reference convolution for "ref") and hands fn a batch.
func benchGNLeNetArms(b *testing.B, batch int, fn func(b *testing.B, m *Classifier, x *Tensor, y []float64)) {
	build := func() *Classifier {
		return NewGNLeNet(ModelConfig{Channels: 3, Height: 16, Width: 16, Classes: 10, WidthScale: 4}, vec.NewRNG(42))
	}
	for _, arm := range benchArms {
		b.Run(arm, func(b *testing.B) {
			defer portableArm(arm)()
			m := build()
			if arm == "ref" {
				m = referenceTwin(build)
			}
			rng := vec.NewRNG(43)
			x := NewTensor(batch, 3, 16, 16)
			y := make([]float64, batch)
			fillNormal(x.Data, rng)
			for i := range y {
				y[i] = float64(rng.Intn(10))
			}
			fn(b, m, x, y)
		})
	}
}

// BenchmarkGNLeNetTrainBatch is one SGD step of the cifar-jwins workload's
// model on its batch of 8.
func BenchmarkGNLeNetTrainBatch(b *testing.B) {
	benchGNLeNetArms(b, 8, func(b *testing.B, m *Classifier, x *Tensor, y []float64) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.TrainBatch(x, y, 0.05)
		}
	})
}

// BenchmarkGNLeNetEvalBatch is one evaluation batch of 32.
func BenchmarkGNLeNetEvalBatch(b *testing.B) {
	benchGNLeNetArms(b, 32, func(b *testing.B, m *Classifier, x *Tensor, y []float64) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.EvalBatch(x, y)
		}
	})
}

// TestConv2DAllocationFree pins the kernels' steady state: once the scratch
// tensors exist, neither direction allocates on either path, nor does the
// training step's half of the backward pass.
func TestConv2DAllocationFree(t *testing.T) {
	forEachConvPath(t, func(t *testing.T) {
		rng := vec.NewRNG(44)
		for _, s := range convBenchShapes[:2] {
			c := NewConv2D(s.inC, s.outC, 5, 2, rng)
			x := NewTensor(4, s.inC, s.size, s.size)
			grad := NewTensor(4, s.outC, s.size, s.size)
			fillNormal(x.Data, rng)
			fillNormal(grad.Data, rng)
			c.Forward(x, true)
			c.Backward(grad)
			if a := testing.AllocsPerRun(10, func() { c.Forward(x, true) }); a != 0 {
				t.Errorf("%d->%d@%d: Forward allocates %v times per call", s.inC, s.outC, s.size, a)
			}
			if a := testing.AllocsPerRun(10, func() { c.Backward(grad) }); a != 0 {
				t.Errorf("%d->%d@%d: Backward allocates %v times per call", s.inC, s.outC, s.size, a)
			}
			if a := testing.AllocsPerRun(10, func() { c.backwardParams(grad) }); a != 0 {
				t.Errorf("%d->%d@%d: backwardParams allocates %v times per call", s.inC, s.outC, s.size, a)
			}
		}
	})
}
