package core

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/vec"
)

// refPartialAverage is partialAverage as it was before it walked the vector in
// blocks: whole-vector passes and a weight sum per coefficient. It is the
// definition the blocked walk is held to, bit for bit, and the `ref` arm of
// BenchmarkPartialAverage.
func refPartialAverage(own []float64, selfWeight float64, msgs []decodedMsg, out, wsum []float64) {
	for k := range out {
		out[k] = selfWeight * own[k]
		wsum[k] = selfWeight
	}
	for _, m := range msgs {
		if m.sv.Indices == nil {
			for k, v := range m.sv.Values {
				out[k] += m.weight * float64(v)
				wsum[k] += m.weight
			}
			continue
		}
		for pos, idx := range m.sv.Indices {
			out[idx] += m.weight * float64(m.sv.Values[pos])
			wsum[idx] += m.weight
		}
	}
	for k := range out {
		out[k] /= wsum[k]
	}
}

// averageInputs draws a node's vector and d messages: dense, explicit-index
// (what a gamma payload decodes to) and seeded supports mixed by kinds, which
// cycles; count 0 gives an empty, non-nil index list. Message values are
// float32, as decoded. Values carry ±0, NaN and ±Inf when specials is set.
func averageInputs(r *vec.RNG, dim, d int, kinds string, specials bool) ([]float64, []decodedMsg) {
	draw := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = r.NormFloat64()
			if specials && r.Intn(8) == 0 {
				out[i] = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(5)]
			}
		}
		return out
	}
	msgs := make([]decodedMsg, d)
	for i := range msgs {
		m := &msgs[i]
		m.weight = 0.05 + r.Float64()
		m.sv.Dim = dim
		switch kinds[i%len(kinds)] {
		case 'd':
			m.sv.Values = vec.AppendNarrow(nil, draw(dim))
		case 'g':
			m.sv.Indices = r.SampleWithoutReplacement(dim, r.Intn(dim+1))
			m.sv.Values = vec.AppendNarrow(nil, draw(len(m.sv.Indices)))
		case 's':
			m.sv.Indices = codec.SeededIndices(r.Uint64(), dim, dim*37/100)
			m.sv.Values = vec.AppendNarrow(nil, draw(len(m.sv.Indices)))
		case 'e':
			m.sv.Indices = []int{}
		}
	}
	return draw(dim), msgs
}

// TestPartialAverageMatchesReference: the blocked walk computes exactly what
// the whole-vector passes did, over every mix of dense, gamma, seeded and empty
// messages, degrees 0 to 8, and dimensions on either side of a block boundary.
// Every bit is compared except the sign and payload of a NaN: which operand's
// an SSE add propagates is the compiler's choice of destination register, in
// the reference as much as here.
func TestPartialAverageMatchesReference(t *testing.T) {
	r := vec.NewRNG(77)
	for _, dim := range []int{1, 1023, 1024, 1025, 45221} {
		for d := 0; d <= 8; d++ {
			for _, kinds := range []string{"d", "g", "s", "dgse", "gd", "e", "ed"} {
				own, msgs := averageInputs(r, dim, d, kinds, d%2 == 1)
				want, wsum, got := make([]float64, dim), make([]float64, dim), make([]float64, dim)
				refPartialAverage(own, 0.3, msgs, want, wsum)
				partialAverage(own, 0.3, msgs, got)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
						t.Fatalf("dim %d, d %d, kinds %q: coefficient %d = %v, want %v", dim, d, kinds, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// BenchmarkPartialAverage: the movielens merges — four dense 45 221-value
// neighbours (full sharing) and four 14 000-index ones (JWINS) — through the
// whole-vector passes (`ref`) and the blocked walk (`new`) in one process.
func BenchmarkPartialAverage(b *testing.B) {
	const dim = 45221
	r := vec.NewRNG(78)
	for _, in := range []struct{ name, kinds string }{{"dense-4x45221", "d"}, {"sparse-4x14000", "g"}} {
		own, msgs := averageInputs(r, dim, 4, in.kinds, false)
		for i := range msgs {
			if in.kinds == "g" {
				msgs[i].sv.Indices = r.SampleWithoutReplacement(dim, 14000)
				msgs[i].sv.Values = msgs[i].sv.Values[:0]
				for range msgs[i].sv.Indices {
					msgs[i].sv.Values = append(msgs[i].sv.Values, float32(r.NormFloat64()))
				}
			}
		}
		out, wsum := make([]float64, dim), make([]float64, dim)
		b.Run(in.name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refPartialAverage(own, 0.2, msgs, out, wsum)
			}
		})
		b.Run(in.name+"/new", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				partialAverage(own, 0.2, msgs, out)
			}
		})
	}
}
