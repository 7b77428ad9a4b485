// Package repro's benchmark harness: one testing.B target per table and
// figure of the paper (micro scale, so `go test -bench=.` terminates in
// minutes) plus micro-benchmarks of the primitives on JWINS's hot path.
// Full-scale regeneration is cmd/jwins-bench's job; recorded outputs live in
// EXPERIMENTS.md.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/dwt"
	"repro/internal/experiments"
	"repro/internal/fourier"
	"repro/internal/nn"
	"repro/internal/perf"
	"repro/internal/sparsify"
	"repro/internal/vec"
)

const benchSeed = 42

// --- One benchmark per table/figure ----------------------------------------

func BenchmarkFigure2Reconstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(experiments.Micro, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Epochs) - 1
		b.ReportMetric(r.Wavelet[last], "waveletMSE")
		b.ReportMetric(r.Random[last], "randomMSE")
	}
}

func BenchmarkFigure3RandomizedCutoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(experiments.Micro, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, m := range r.MeanPerRound {
			mean += m
		}
		b.ReportMetric(mean/float64(len(r.MeanPerRound))*100, "meanAlpha%")
	}
}

// benchTable1Dataset runs one dataset's Table I row.
func benchTable1Dataset(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(experiments.Micro, benchSeed, []string{name})
		if err != nil {
			b.Fatal(err)
		}
		row := r.Rows[0]
		b.ReportMetric(row.AccJWINS, "jwinsAcc%")
		b.ReportMetric(row.NetworkSavings*100, "savings%")
	}
}

func BenchmarkTable1CIFAR10(b *testing.B)     { benchTable1Dataset(b, "cifar10") }
func BenchmarkTable1MovieLens(b *testing.B)   { benchTable1Dataset(b, "movielens") }
func BenchmarkTable1Shakespeare(b *testing.B) { benchTable1Dataset(b, "shakespeare") }
func BenchmarkTable1CelebA(b *testing.B)      { benchTable1Dataset(b, "celeba") }
func BenchmarkTable1FEMNIST(b *testing.B)     { benchTable1Dataset(b, "femnist") }

func BenchmarkFigure5RunToTarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(experiments.Micro, benchSeed, []string{"cifar10"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows[0].RoundsSaved), "roundsSaved")
	}
}

func BenchmarkFigure6VsChoco(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(experiments.Micro, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[1].AccJWINS-r.Rows[1].AccChoco, "accGain10%budget")
	}
}

func BenchmarkFigure7DynamicTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(experiments.Micro, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FullDynamic-r.FullStatic, "dynamicGain%")
	}
}

func BenchmarkFigure8Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(experiments.Micro, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Acc[string(experiments.AlgoJWINS)]-r.Acc[string(experiments.AlgoJWINSNoWavelet)], "waveletGain%")
	}
}

func BenchmarkFigure9Metadata(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(experiments.Micro, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Compression, "gammaCompressionX")
	}
}

func BenchmarkFigure10Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(experiments.Micro, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[len(r.Rows)-1].AccGain, "accGainLargestN%")
	}
}

// --- Engine throughput: synchronous vs event-driven -------------------------
//
// The fleets live in internal/perf so `go test -bench` and `jwins-bench
// -bench-json` measure identical workloads. Async benchmarks run at
// parallelism 1 (the serial reference) and at NumCPU, bracketing the worker
// pool's win; the parallelism-invariance tests assert the two are
// bit-identical in everything but wall-clock time.

// BenchmarkEngineSync16 measures synchronous-engine throughput: 10 rounds of
// a 16-node full-sharing run per iteration.
func BenchmarkEngineSync16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := perf.RunSync16(perf.MaxParallelism()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineAsync16 is the event-driven counterpart on identical inputs
// (homogeneous profiles, no churn), so sync vs async/p1 brackets the
// scheduler's bookkeeping overhead and p1 vs pmax the pool speedup.
func BenchmarkEngineAsync16(b *testing.B) {
	for _, p := range []int{1, perf.MaxParallelism()} {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				events, err := perf.RunAsync16(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(events), "events/run")
			}
		})
	}
}

// BenchmarkEngineAsyncChurn16 adds a straggler tail and 25% churn, the cost
// of the scenario the scheduler exists to express.
func BenchmarkEngineAsyncChurn16(b *testing.B) {
	for _, p := range []int{1, perf.MaxParallelism()} {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				events, err := perf.RunAsyncChurn16(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(events), "events/run")
			}
		})
	}
}

// BenchmarkEngineAsyncDynTopo16 rotates the topology every simulated epoch
// on top of the churned configuration: graph regeneration, spectral-gap
// estimation, state-sync sends, and buffer re-keying join the measured path.
func BenchmarkEngineAsyncDynTopo16(b *testing.B) {
	for _, p := range []int{1, perf.MaxParallelism()} {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				events, err := perf.RunAsyncDynTopo16(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(events), "events/run")
			}
		})
	}
}

// BenchmarkEngineAsync256 is the scale tier: 256 heterogeneous nodes on the
// lean MLP task, so scheduler cost (heap, pooled buffers, payload fan-out)
// dominates the measurement rather than SGD.
func BenchmarkEngineAsync256(b *testing.B) {
	for _, p := range []int{1, perf.MaxParallelism()} {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				events, err := perf.RunAsync256(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(events), "events/run")
			}
		})
	}
}

// BenchmarkEngineAsync1024 is the first sampled-eval tier: 1024 heterogeneous
// nodes, copy-on-write fleet construction, and a 64-node rotating eval subset
// per eval row.
func BenchmarkEngineAsync1024(b *testing.B) {
	for _, p := range []int{1, perf.MaxParallelism()} {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				events, err := perf.RunAsync1024(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(events), "events/run")
			}
		})
	}
}

// BenchmarkEngineAsync4096 is the 10k-ceiling tier: 4096 nodes under the same
// sampled-eval configuration, the largest fleet the committed BENCH baselines
// track.
func BenchmarkEngineAsync4096(b *testing.B) {
	for _, p := range []int{1, perf.MaxParallelism()} {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				events, err := perf.RunAsync4096(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(events), "events/run")
			}
		})
	}
}

// --- Primitive micro-benchmarks ---------------------------------------------

func benchParams(n int) []float64 {
	rng := vec.NewRNG(1)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func BenchmarkDWTForward(b *testing.B) {
	const n = 1 << 17
	tr, err := dwt.NewTransformer(n, dwt.MustByName("sym2"), 4)
	if err != nil {
		b.Fatal(err)
	}
	x := benchParams(n)
	out := make([]float64, tr.CoeffLen())
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Forward(x, out)
	}
}

func BenchmarkDWTInverse(b *testing.B) {
	const n = 1 << 17
	tr, err := dwt.NewTransformer(n, dwt.MustByName("sym2"), 4)
	if err != nil {
		b.Fatal(err)
	}
	x := benchParams(n)
	coeffs := make([]float64, tr.CoeffLen())
	tr.Forward(x, coeffs)
	out := make([]float64, n)
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Inverse(coeffs, out)
	}
}

func BenchmarkFFTForward(b *testing.B) {
	const n = 1 << 17
	tr, err := fourier.NewTransformer(n)
	if err != nil {
		b.Fatal(err)
	}
	x := benchParams(n)
	out := make([]float64, tr.CoeffLen())
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Forward(x, out)
	}
}

func BenchmarkTopKSelection(b *testing.B) {
	const n = 1 << 17
	x := benchParams(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsify.TopKIndices(x, n/10)
	}
}

func BenchmarkEliasGammaEncode(b *testing.B) {
	const dim = 1 << 17
	idx := vec.NewRNG(2).SampleWithoutReplacement(dim, dim*37/100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.EncodeIndicesGamma(idx); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFloatCodec(b *testing.B, fc codec.FloatCodec) {
	b.Helper()
	vals := benchParams(1 << 16)
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := fc.Encode(vals)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fc.Decode(buf, len(vals)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloatCodecRaw32(b *testing.B)   { benchFloatCodec(b, codec.Raw32{}) }
func BenchmarkFloatCodecFlate32(b *testing.B) { benchFloatCodec(b, codec.PlaneFlate32{}) }
func BenchmarkFloatCodecXOR32(b *testing.B)   { benchFloatCodec(b, codec.XOR32{}) }

// BenchmarkJWINSShareAggregate measures one full JWINS communication round
// (share + aggregate) for a 100k-parameter model, excluding local training.
func BenchmarkJWINSShareAggregate(b *testing.B) {
	node, neighbor, err := perf.JWINSPair(100_000)
	if err != nil {
		b.Fatal(err)
	}
	wA, wB := perf.PairWeights(1), perf.PairWeights(0)
	msgsA := make(map[int][]byte, 1)
	msgsB := make(map[int][]byte, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, _, err := node.Share(i)
		if err != nil {
			b.Fatal(err)
		}
		p2, _, err := neighbor.Share(i)
		if err != nil {
			b.Fatal(err)
		}
		msgsA[1] = p2
		if err := node.Aggregate(i, wA, msgsA); err != nil {
			b.Fatal(err)
		}
		msgsB[0] = p1
		if err := neighbor.Aggregate(i, wB, msgsB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJWINSShare isolates the share half of the pipeline (accumulate,
// DWT, top-k, encode): the allocs/op here are the PR's zero-allocation
// acceptance metric. The flate32 sub-benchmark is the paper's default; the
// raw32 one shows the repository's own pipeline with compress/flate's
// internal allocations out of the picture.
func BenchmarkJWINSShare(b *testing.B) {
	for _, v := range microCodecVariants() {
		v := v
		b.Run(v.name, func(b *testing.B) {
			node, _, err := perf.JWINSPairCodec(100_000, v.fc)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := node.Share(0); err != nil { // warm the scratch buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := node.Share(i + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJWINSAggregate isolates the aggregate half (decode, partial
// average, inverse DWT, accumulator fold) by re-merging a fixed payload.
func BenchmarkJWINSAggregate(b *testing.B) {
	for _, v := range microCodecVariants() {
		v := v
		b.Run(v.name, func(b *testing.B) {
			node, neighbor, err := perf.JWINSPairCodec(100_000, v.fc)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := node.Share(0); err != nil {
				b.Fatal(err)
			}
			payload, _, err := neighbor.Share(0)
			if err != nil {
				b.Fatal(err)
			}
			w := perf.PairWeights(1)
			msgs := map[int][]byte{1: payload}
			if err := node.Aggregate(0, w, msgs); err != nil { // warm the scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := node.Aggregate(i+1, w, msgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func microCodecVariants() []struct {
	name string
	fc   codec.FloatCodec
} {
	return []struct {
		name string
		fc   codec.FloatCodec
	}{
		{"flate32", nil},
		{"raw32", codec.Raw32{}},
	}
}

// BenchmarkLocalSGDStep measures one GN-LeNet minibatch train step.
func BenchmarkLocalSGDStep(b *testing.B) {
	rng := vec.NewRNG(4)
	clf := nn.NewGNLeNet(nn.ModelConfig{Channels: 3, Height: 16, Width: 16, Classes: 10, WidthScale: 4}, rng)
	x := nn.NewTensor(8, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := make([]float64, 8)
	for i := range y {
		y[i] = float64(rng.Intn(10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.TrainBatch(x, y, 0.05)
	}
}
