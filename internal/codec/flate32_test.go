package codec

import (
	"bytes"
	"compress/flate"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/vec"
)

// stdPlaneFlate32 is PlaneFlate32 as it was before it wrote or read any block
// itself: every plane through compress/flate's Huffman-only writer, every
// payload through its reader. It survives only here, as the oracle — the
// encoder is held to its bytes, the inflater to its bytes and its verdicts —
// and as the `std` arm of the benchmarks.
type stdPlaneFlate32 struct{}

func (stdPlaneFlate32) Name() string { return "flate32-std" }

// transposePlanes fills planes (4 bytes per value) with what the encoders
// deflate: byte k of every float32, most significant first, plane after plane.
func transposePlanes(planes []byte, values []float32) {
	n := len(values)
	for i, v := range values {
		b := math.Float32bits(v)
		planes[i] = byte(b >> 24)
		planes[n+i] = byte(b >> 16)
		planes[2*n+i] = byte(b >> 8)
		planes[3*n+i] = byte(b)
	}
}

func (stdPlaneFlate32) AppendEncode(dst []byte, values []float32) ([]byte, error) {
	n := len(values)
	pp := getByteBuf(4 * n)
	defer putByteBuf(pp)
	planes := *pp
	transposePlanes(planes, values)
	sw := sliceWriter{b: dst}
	fw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(fw)
	fw.Reset(&sw)
	_, err := fw.Write(planes[:n])
	if err == nil {
		err = fw.Flush() // plane 0's blocks end here
	}
	if err == nil {
		_, err = fw.Write(planes[n:])
	}
	if err == nil {
		err = fw.Close()
	}
	if err != nil {
		return dst, fmt.Errorf("codec: flate encode: %w", err)
	}
	return sw.b, nil
}

func (stdPlaneFlate32) DecodeInto(buf []byte, out []float32) error {
	count := len(out)
	pp := getByteBuf(4 * count)
	defer putByteBuf(pp)
	planes := *pp
	fr := getFlateReader(buf)
	_, err := io.ReadFull(fr.fr, planes)
	putFlateReader(fr)
	if err != nil {
		return fmt.Errorf("codec: flate read: %w", ErrCorrupt)
	}
	n := count
	for i := range out {
		b := uint32(planes[i])<<24 | uint32(planes[n+i])<<16 |
			uint32(planes[2*n+i])<<8 | uint32(planes[3*n+i])
		out[i] = math.Float32frombits(b)
	}
	return nil
}

// Payloads EncodeSparse produced before PR 15, when flate32 still ran an LZ
// pass (flate32 values, one per index mode): 48 values cycling through 0.5,
// -1.25, 3.75, 0, -0.0625, 2, 0.0078125, -17, so every plane has period 8 and
// the stream is one dynamic block with LZ matches that covers all four planes —
// the shape no encoder here writes any more, inflateLiterals must decline and
// the decoder must keep reading.
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
	cycle := []float32{0.5, -1.25, 3.75, 0, -0.0625, 2, 0.0078125, -17}
	for _, p := range parentFlate32Payloads {
		sv, err := decodeSparse(mustHex(t, p.hex))
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

// gaussianValues draws n values from N(0, sigma²), narrowed to float32.
func gaussianValues(n int, sigma float64, seed uint64) []float32 {
	r := vec.NewRNG(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.NormFloat64() * sigma)
	}
	return out
}

// specialValues are values a Gaussian never produces — ±Inf, a NaN of each
// sign with a payload bit, ±0, ±MaxFloat32, the smallest subnormal — and two
// float64 values that narrow to 0 and to +Inf.
func specialValues() []float32 {
	nan := float64(math.Float32frombits(0x7fc00001))
	return vec.AppendNarrow(nil, []float64{math.Inf(1), math.Inf(-1), nan, -nan, math.Copysign(0, -1), 0,
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1e-46, 1e39})
}

// heavyTailedValues imitates wavelet coefficients of a model: a Gaussian whose
// scale is itself log-normal, so most values are tiny and a few are large.
func heavyTailedValues(n int, seed uint64) []float32 {
	r := vec.NewRNG(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.NormFloat64() * 0.01 * math.Exp(1.5*r.NormFloat64()))
	}
	return out
}

// topKGathered returns the k largest-magnitude values of v in index order —
// what a top-k sparsifier hands the codec.
func topKGathered(v []float32, k int) []float32 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return math.Abs(float64(v[idx[a]])) > math.Abs(float64(v[idx[b]])) })
	idx = idx[:k]
	sort.Ints(idx)
	out := make([]float32, k)
	for i, j := range idx {
		out[i] = v[j]
	}
	return out
}

// flate32Cases are the inputs the encoder and the inflater are held to the
// oracle on: every size at which something changes (n = 3 552: the first codes
// longer than the lookup table; 21 845 | 21 846: one | two mantissa chunks;
// 65 535 | 65 536: one | two blocks of plane 0) times five kinds of values,
// plus a movielens top-k share. weights marks the kinds whose mantissa bytes
// look random, which is what the direct stored blocks are for.
func flate32Cases() []flate32Case {
	specials := specialValues()
	cases := []flate32Case{{"topk-14000-of-45221", topKGathered(heavyTailedValues(45221, 28), 14000), true}}
	for i, n := range []int{0, 1, 6, 63, 64, 700, 3552, 14000, 21845, 21846, 45221, 65535, 65536, 200000} {
		cycle := make([]float32, n)
		for j := range cycle {
			cycle[j] = specials[j%len(specials)]
		}
		cases = append(cases,
			flate32Case{fmt.Sprintf("gauss-%d", n), gaussianValues(n, 0.05, uint64(100+i)), true},
			flate32Case{fmt.Sprintf("heavy-tailed-%d", n), heavyTailedValues(n, uint64(200+i)), true},
			flate32Case{fmt.Sprintf("zeros-%d", n), repeat(0, n), false},
			flate32Case{fmt.Sprintf("constant-%d", n), repeat(0.0421, n), false},
			flate32Case{fmt.Sprintf("specials-%d", n), cycle, false})
	}
	return cases
}

type flate32Case struct {
	name    string
	vals    []float32
	weights bool
}

// TestPlaneFlate32MatchesReference: same bytes. Whatever AppendEncode writes
// itself, the payload is the one compress/flate alone would have written, so
// it inflates through a bare flate reader — no pooled state, nothing of this
// package — to the plane bytes, and decodes to the float32 bit patterns.
func TestPlaneFlate32MatchesReference(t *testing.T) {
	for _, c := range flate32Cases() {
		got, err := PlaneFlate32{}.AppendEncode(nil, c.vals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		std, err := stdPlaneFlate32{}.AppendEncode(nil, c.vals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, std) {
			t.Fatalf("%s: %d bytes differ from compress/flate's %d", c.name, len(got), len(std))
		}
		inflated, err := io.ReadAll(flate.NewReader(bytes.NewReader(got)))
		if err != nil {
			t.Fatalf("%s: plain inflate: %v", c.name, err)
		}
		planes := make([]byte, 4*len(c.vals))
		transposePlanes(planes, c.vals)
		if !bytes.Equal(inflated, planes) {
			t.Fatalf("%s: stream does not inflate to the plane bytes", c.name)
		}
		back := make([]float32, len(c.vals))
		if err := (PlaneFlate32{}).DecodeInto(got, back); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		for i, v := range c.vals {
			if math.Float32bits(back[i]) != math.Float32bits(v) {
				t.Fatalf("%s: value %d: %v, want %v", c.name, i, back[i], v)
			}
		}
	}
}

// TestFlate32FastPathTaken: the traffic takes the paths written for it, so a
// silent fall-back to compress/flate fails here instead of in a benchmark.
// Every payload the encoder writes is inflated by inflateLiterals, every
// mantissa chunk of 4 KB or more of a weight-like vector is stored directly
// (that is, storesForSure vouches for it and for every chunk before it), and
// the LZ payloads of old encoders are declined, not misread.
func TestFlate32FastPathTaken(t *testing.T) {
	for _, c := range flate32Cases() {
		buf, err := PlaneFlate32{}.AppendEncode(nil, c.vals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n := len(c.vals)
		want, got := make([]byte, 4*n), make([]byte, 4*n)
		transposePlanes(want, c.vals)
		if !inflateLiterals(buf, got) {
			t.Fatalf("%s: inflateLiterals declined the encoder's own stream", c.name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: inflateLiterals inflates to other bytes", c.name)
		}
		direct := c.weights
		for rest := want[n:]; direct && len(rest) > 0; {
			chunk := rest[:min(len(rest), maxStored)]
			direct = storesForSure(chunk)
			if !direct && len(chunk) >= 4096 {
				t.Fatalf("%s: a %d-byte mantissa chunk goes through the writer", c.name, len(chunk))
			}
			rest = rest[len(chunk):]
		}
	}
	for _, p := range parentFlate32Payloads {
		payload := mustHex(t, p.hex)
		if values := payload[len(payload)-42:]; inflateLiterals(values, make([]byte, 4*48)) {
			t.Fatalf("%s: inflateLiterals accepted a stream with LZ matches", p.name)
		}
	}
}

// TestFlate32DecodeErrorNamesCause: a value section that ends early and one
// that is not DEFLATE are both ErrCorrupt, and the message says which.
func TestFlate32DecodeErrorNamesCause(t *testing.T) {
	buf, err := PlaneFlate32{}.AppendEncode(nil, gaussianValues(700, 0.05, 24))
	if err != nil {
		t.Fatal(err)
	}
	malformed := append([]byte{0x07}, buf...) // block type 3
	for cause, in := range map[string][]byte{"unexpected EOF": buf[:len(buf)/2], "corrupt input": malformed} {
		err := PlaneFlate32{}.DecodeInto(in, make([]float32, 700))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), cause) {
			t.Fatalf("want ErrCorrupt naming %q, got %v", cause, err)
		}
	}
}

// TestPlaneFlate32Degenerate: the inputs a Gaussian round trip never visits.
// Bit patterns (not just values: -0, NaN payloads) survive, and a vector that
// repeats is still entropy-coded — 100 000 zeros or copies of one value take
// about a bit per byte, which holds only while compress/flate chooses per
// block between a Huffman table and storing; unconditional stored blocks
// would put both at 4n. The Gaussian bound is the ratio measured, not "< 4n".
func TestPlaneFlate32Degenerate(t *testing.T) {
	cases := []struct {
		name     string
		vals     []float32
		maxRatio float64 // of 4n; 0: no size bound
	}{
		{"empty", nil, 0},
		{"one", repeat(-0.0173, 1), 0},
		{"zeros-50", repeat(0, 50), 0},
		{"repeat-50", repeat(0.0421, 50), 0},
		{"specials", specialValues(), 0},
		{"zeros-100000", repeat(0, 100000), 1.0 / 7},
		{"repeat-100000", repeat(0.0421, 100000), 1.0 / 7},
		{"gauss-20000", gaussianValues(20000, 0.05, 10), 0.86},
	}
	for _, c := range cases {
		buf, err := PlaneFlate32{}.AppendEncode(nil, c.vals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := decodeFloats(PlaneFlate32{}, buf, len(c.vals))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, v := range c.vals {
			want := math.Float32bits(v)
			if have := math.Float32bits(got[i]); have != want {
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
	vals []float32
} {
	return []struct {
		name string
		vals []float32
	}{
		{"dense-45221", gaussianValues(45221, 0.05, 30)},
		{"topk-14000", topKGathered(heavyTailedValues(45221, 31), 14000)},
	}
}

// The benchmarks run compress/flate alone (`std`) and the codec (`new`) over
// the same values and the same payload — the bytes are equal — in one process.
func BenchmarkPlaneFlate32Encode(b *testing.B) {
	for _, in := range flateBenchInputs() {
		for _, arm := range []struct {
			name string
			enc  FloatCodec
		}{{"std", stdPlaneFlate32{}}, {"new", PlaneFlate32{}}} {
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

func BenchmarkPlaneFlate32Decode(b *testing.B) {
	for _, in := range flateBenchInputs() {
		for _, arm := range []struct {
			name string
			dec  FloatCodec
		}{{"std", stdPlaneFlate32{}}, {"new", PlaneFlate32{}}} {
			b.Run(in.name+"/"+arm.name, func(b *testing.B) {
				buf, err := PlaneFlate32{}.AppendEncode(nil, in.vals)
				if err != nil {
					b.Fatal(err)
				}
				out := make([]float32, len(in.vals))
				b.SetBytes(int64(4 * len(in.vals)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := arm.dec.DecodeInto(buf, out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
