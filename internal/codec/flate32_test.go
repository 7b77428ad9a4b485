package codec

import (
	"bytes"
	"compress/flate"
	"encoding/hex"
	"io"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/vec"
)

// refPlaneFlate32 is the encoder PlaneFlate32 had before it dropped the LZ
// pass: all four planes through one pooled flate.BestSpeed writer as a single
// stream. It survives only here, as the oracle the Huffman-only encoder is
// held to (same plane bytes, never more output on real payloads) and as the
// `ref` arm of the benchmarks; its decoder is PlaneFlate32.DecodeInto, which
// did not change.
type refPlaneFlate32 struct{}

var refFlateWriterPool = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err)
	}
	return fw
}}

// transposePlanes fills planes (4 bytes per value) with what both encoders
// deflate: byte k of every float32, most significant first, plane after plane.
func transposePlanes(planes []byte, values []float64) {
	n := len(values)
	for i, v := range values {
		b := math.Float32bits(float32(v))
		planes[i] = byte(b >> 24)
		planes[n+i] = byte(b >> 16)
		planes[2*n+i] = byte(b >> 8)
		planes[3*n+i] = byte(b)
	}
}

func (refPlaneFlate32) AppendEncode(dst []byte, values []float64) ([]byte, error) {
	pp := getByteBuf(4 * len(values))
	defer putByteBuf(pp)
	planes := *pp
	transposePlanes(planes, values)
	sw := sliceWriter{b: dst}
	fw := refFlateWriterPool.Get().(*flate.Writer)
	defer refFlateWriterPool.Put(fw)
	fw.Reset(&sw)
	if _, err := fw.Write(planes); err != nil {
		return dst, err
	}
	if err := fw.Close(); err != nil {
		return dst, err
	}
	return sw.b, nil
}

// Payloads EncodeSparse produced at the parent commit (flate32 values, one per
// index mode): 48 values cycling through 0.5, -1.25, 3.75, 0, -0.0625, 2,
// 0.0078125, -17, so every plane has period 8 and the stream is one dynamic
// block with LZ matches that covers all four planes — the shape this encoder
// no longer writes and the decoder must keep reading.
var parentFlate32Payloads = []struct {
	name    string
	hex     string
	dim     int
	indices func(i int) int // nil: dense
}{
	{"dense", "000130000000300000002a000000b4c5310d00200c44d12f8c84938404466460a469eaac166ee95bde4e115ae5ce3f5c78f6c33a0000ffff", 48, nil},
	{"gamma", "010164000000300000000c000000bbbbbbbbbbbbbbbbbbbbbbbb2a000000b4c5310d00200c44d12f8c84938404466460a469eaac166ee95bde4e115ae5ce3f5c78f6c33a0000ffff", 100,
		func(i int) int { return 2*i + i%2 }},
	{"seeded", "02016400000030000000edfe0000000000002a000000b4c5310d00200c44d12f8c84938404466460a469eaac166ee95bde4e115ae5ce3f5c78f6c33a0000ffff", 100, nil},
}

func mustHex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestParentFlate32PayloadsDecode: wire compatibility, old to new. Payloads
// made by the parent commit's encoder decode here to the values they carried.
func TestParentFlate32PayloadsDecode(t *testing.T) {
	cycle := []float64{0.5, -1.25, 3.75, 0, -0.0625, 2, 0.0078125, -17}
	for _, p := range parentFlate32Payloads {
		sv, err := DecodeSparse(mustHex(t, p.hex))
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if sv.Dim != p.dim || len(sv.Values) != 48 {
			t.Fatalf("%s: dim %d, %d values", p.name, sv.Dim, len(sv.Values))
		}
		for i, v := range sv.Values {
			if v != cycle[i%8] {
				t.Fatalf("%s: value %d = %v, want %v", p.name, i, v, cycle[i%8])
			}
			if p.indices != nil && sv.Indices[i] != p.indices(i) {
				t.Fatalf("%s: index %d = %d, want %d", p.name, i, sv.Indices[i], p.indices(i))
			}
		}
	}
}

func gaussianValues(n int, sigma float64, seed uint64) []float64 {
	out := randomValues(n, seed)
	for i := range out {
		out[i] *= sigma
	}
	return out
}

// heavyTailedValues imitates wavelet coefficients of a model: a Gaussian whose
// scale is itself log-normal, so most values are tiny and a few are large.
func heavyTailedValues(n int, seed uint64) []float64 {
	r := vec.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64() * 0.01 * math.Exp(1.5*r.NormFloat64())
	}
	return out
}

// topKGathered returns the k largest-magnitude values of v in index order —
// what a top-k sparsifier hands the codec.
func topKGathered(v []float64, k int) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return math.Abs(v[idx[a]]) > math.Abs(v[idx[b]]) })
	idx = idx[:k]
	sort.Ints(idx)
	out := make([]float64, k)
	for i, j := range idx {
		out[i] = v[j]
	}
	return out
}

// TestPlaneFlate32MatchesReference: wire compatibility, new to old, and the
// size claim. On weight-like vectors the stream inflates through a bare
// compress/flate reader — no pooled state, nothing of this package — to
// exactly the plane bytes the reference encoder deflates, and is never longer
// than the reference's output from 64 values up (the flush's sync marker and
// the second block header cost at most 10 bytes below that).
func TestPlaneFlate32MatchesReference(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
	}{
		{"gauss-6", gaussianValues(6, 0.05, 21)},
		{"gauss-63", gaussianValues(63, 0.05, 22)},
		{"gauss-64", gaussianValues(64, 0.05, 23)},
		{"gauss-700", gaussianValues(700, 0.05, 24)},
		{"gauss-3552", gaussianValues(3552, 0.05, 25)},
		{"gauss-45221", gaussianValues(45221, 0.05, 26)},
		{"heavy-tailed-45221", heavyTailedValues(45221, 27)},
		{"topk-14000-of-45221", topKGathered(heavyTailedValues(45221, 28), 14000)},
	}
	for _, c := range cases {
		got, err := PlaneFlate32{}.Encode(c.vals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref, err := refPlaneFlate32{}.AppendEncode(nil, c.vals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		inflated, err := io.ReadAll(flate.NewReader(bytes.NewReader(got)))
		if err != nil {
			t.Fatalf("%s: plain inflate: %v", c.name, err)
		}
		planes := make([]byte, 4*len(c.vals))
		transposePlanes(planes, c.vals)
		if !bytes.Equal(inflated, planes) {
			t.Fatalf("%s: stream does not inflate to the reference's plane bytes", c.name)
		}
		slack := 0
		if len(c.vals) < 64 {
			slack = 10
		}
		if len(got) > len(ref)+slack {
			t.Fatalf("%s: %d bytes, reference %d (+%d allowed)", c.name, len(got), len(ref), slack)
		}
		// The reference's own stream still decodes through the unchanged decoder.
		back := make([]float64, len(c.vals))
		if err := (PlaneFlate32{}).DecodeInto(ref, back); err != nil {
			t.Fatalf("%s: decode of reference stream: %v", c.name, err)
		}
		for i, v := range c.vals {
			if back[i] != float64(float32(v)) {
				t.Fatalf("%s: reference stream value %d: %v, want %v", c.name, i, back[i], float64(float32(v)))
			}
		}
		t.Logf("%s: %d bytes vs reference %d (%.3f / %.3f of raw)", c.name, len(got), len(ref),
			float64(len(got))/float64(4*len(c.vals)), float64(len(ref))/float64(4*len(c.vals)))
	}
}

// TestPlaneFlate32Degenerate: the inputs a Gaussian round trip never visits.
// Bit patterns (not just values: -0, NaN payloads) survive, and a vector that
// repeats is still entropy-coded — 100 000 zeros or copies of one value take
// about a bit per byte, which holds only while compress/flate chooses per
// block between a Huffman table and storing; unconditional stored blocks
// would put both at 4n. The Gaussian bound is the ratio measured, not "< 4n".
func TestPlaneFlate32Degenerate(t *testing.T) {
	repeat := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	nan := float64(math.Float32frombits(0x7fc00001)) // quiet NaN with a payload bit
	cases := []struct {
		name     string
		vals     []float64
		maxRatio float64 // of 4n; 0: no size bound
	}{
		{"empty", nil, 0},
		{"one", []float64{-0.0173}, 0},
		{"zeros-50", repeat(0, 50), 0},
		{"repeat-50", repeat(0.0421, 50), 0},
		{"specials", []float64{math.Inf(1), math.Inf(-1), nan, -nan, math.Copysign(0, -1), 0,
			math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1e-46, 1e39}, 0},
		{"zeros-100000", repeat(0, 100000), 1.0 / 7},
		{"repeat-100000", repeat(0.0421, 100000), 1.0 / 7},
		{"gauss-20000", gaussianValues(20000, 0.05, 10), 0.86},
	}
	for _, c := range cases {
		buf, err := PlaneFlate32{}.Encode(c.vals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := PlaneFlate32{}.Decode(buf, len(c.vals))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, v := range c.vals {
			want := math.Float32bits(float32(v))
			if have := math.Float32bits(float32(got[i])); have != want {
				t.Fatalf("%s: value %d: bits %08x, want %08x", c.name, i, have, want)
			}
		}
		if raw := 4 * len(c.vals); c.maxRatio > 0 {
			if float64(len(buf)) > c.maxRatio*float64(raw) {
				t.Fatalf("%s: %d bytes is %.4f of raw %d, want at most %.4f", c.name, len(buf), float64(len(buf))/float64(raw), raw, c.maxRatio)
			}
			t.Logf("%s: %d -> %d bytes (%.4f of raw)", c.name, raw, len(buf), float64(len(buf))/float64(raw))
		}
	}
}

// flateBenchInputs are the two payload shapes of the movielens workloads: the
// dense 45 221-parameter model (full sharing) and a 14 000-value top-k
// gathered subset (JWINS at its average sharing fraction).
func flateBenchInputs() []struct {
	name string
	vals []float64
} {
	return []struct {
		name string
		vals []float64
	}{
		{"dense-45221", gaussianValues(45221, 0.05, 30)},
		{"topk-14000", topKGathered(heavyTailedValues(45221, 31), 14000)},
	}
}

// flateBenchArms: the parent encoder (`ref`) and the Huffman-only one (`new`),
// run over the same values in one process.
var flateBenchArms = []struct {
	name string
	enc  FloatAppender
}{{"ref", refPlaneFlate32{}}, {"new", PlaneFlate32{}}}

func BenchmarkPlaneFlate32Encode(b *testing.B) {
	for _, in := range flateBenchInputs() {
		for _, arm := range flateBenchArms {
			b.Run(in.name+"/"+arm.name, func(b *testing.B) {
				buf, err := arm.enc.AppendEncode(nil, in.vals)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(4 * len(in.vals)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if buf, err = arm.enc.AppendEncode(buf[:0], in.vals); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(buf))/float64(len(in.vals)), "wireB/value")
			})
		}
	}
}

// BenchmarkPlaneFlate32Decode inflates the stream each encoder wrote through
// the one decoder: the `ref` stream has LZ matches and Huffman-coded mantissa
// blocks, the `new` one literal-only Huffman blocks and stored mantissa planes.
func BenchmarkPlaneFlate32Decode(b *testing.B) {
	for _, in := range flateBenchInputs() {
		for _, arm := range flateBenchArms {
			b.Run(in.name+"/"+arm.name, func(b *testing.B) {
				buf, err := arm.enc.AppendEncode(nil, in.vals)
				if err != nil {
					b.Fatal(err)
				}
				out := make([]float64, len(in.vals))
				b.SetBytes(int64(4 * len(in.vals)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := (PlaneFlate32{}).DecodeInto(buf, out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
