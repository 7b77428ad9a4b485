package codec

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

// EncodeIndicesGamma is AppendIndicesGamma into a fresh buffer.
func EncodeIndicesGamma(indices []int) ([]byte, error) {
	return AppendIndicesGamma(nil, indices)
}

// DecodeIndicesGamma is AppendDecodeIndicesGamma into a fresh slice.
func DecodeIndicesGamma(buf []byte, count int) ([]int, error) {
	return AppendDecodeIndicesGamma(nil, buf, count)
}

// decodeSparse is DecodeSparseInto into a fresh vector.
func decodeSparse(buf []byte) (SparseVector, error) {
	var sv SparseVector
	err := DecodeSparseInto(&sv, buf)
	return sv, err
}

// decodeFloats is fc.DecodeInto into a fresh slice of count values.
func decodeFloats(fc FloatCodec, buf []byte, count int) ([]float32, error) {
	out := make([]float32, count)
	return out, fc.DecodeInto(buf, out)
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(1, 1)
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xdeadbeef, 32)
	w.WriteBits(0, 1)
	buf := w.Bytes()
	r := &BitReader{buf: buf}
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("first bit")
	}
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("nibble = %b", v)
	}
	if v, _ := r.ReadBits(32); v != 0xdeadbeef {
		t.Fatalf("word = %x", v)
	}
	if b, _ := r.ReadBit(); b != 0 {
		t.Fatal("last bit")
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := &BitReader{buf: []byte{0xff}}
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("expected error reading past end")
	}
	if _, err := r.ReadBits(100); err == nil {
		t.Fatal("expected error for >64 bit read")
	}
}

func TestEliasGammaKnownCodes(t *testing.T) {
	// gamma(1)=1, gamma(2)=010, gamma(3)=011, gamma(4)=00100.
	cases := []struct {
		v    uint64
		bits int
	}{{1, 1}, {2, 3}, {3, 3}, {4, 5}, {8, 7}, {255, 15}, {256, 17}}
	for _, c := range cases {
		var w BitWriter
		WriteEliasGamma(&w, c.v)
		if w.BitLen() != c.bits {
			t.Errorf("gamma(%d) wrote %d bits, want %d", c.v, w.BitLen(), c.bits)
		}
		r := &BitReader{buf: w.Bytes()}
		got, err := ReadEliasGamma(r)
		if err != nil || got != c.v {
			t.Errorf("gamma round trip of %d: got %d err %v", c.v, got, err)
		}
	}
}

func TestEliasGammaSequence(t *testing.T) {
	var w BitWriter
	vals := []uint64{1, 2, 3, 100, 1, 77777, 5}
	for _, v := range vals {
		WriteEliasGamma(&w, v)
	}
	r := &BitReader{buf: w.Bytes()}
	for i, want := range vals {
		got, err := ReadEliasGamma(r)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("value %d: got %d want %d", i, got, want)
		}
	}
}

func TestIndicesGammaRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{5},
		{0, 1, 2, 3},
		{0, 100, 10000, 1000000},
		{7, 8, 9, 1 << 20},
	}
	for _, idx := range cases {
		buf, err := EncodeIndicesGamma(idx)
		if err != nil {
			t.Fatalf("%v: %v", idx, err)
		}
		got, err := DecodeIndicesGamma(buf, len(idx))
		if err != nil {
			t.Fatalf("%v: %v", idx, err)
		}
		if len(got) != len(idx) {
			t.Fatalf("%v: got %v", idx, got)
		}
		for i := range idx {
			if got[i] != idx[i] {
				t.Fatalf("%v: got %v", idx, got)
			}
		}
	}
}

// TestIndicesGammaDecodeReservesOnce: a cold decode allocates its index slots
// in one piece, and a header count the buffer cannot hold (every gamma code
// is at least a bit) fails without reserving anything.
func TestIndicesGammaDecodeReservesOnce(t *testing.T) {
	idx := make([]int, 5000)
	for i := range idx {
		idx[i] = 3 * i
	}
	buf, err := EncodeIndicesGamma(idx)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeIndicesGamma(buf, len(idx)); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		// One for the slots; the race detector's build moves the bit reader to
		// the heap as well. Append-doubling to 5000 took over a dozen.
		t.Fatalf("cold decode of %d indices took %v allocations, want the slots reserved once", len(idx), allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeIndicesGamma(buf[:8], 1<<22); err == nil {
		t.Fatal("forged count decoded")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<16 {
		t.Fatalf("forged count of %d allocated %d bytes for an 8-byte buffer", 1<<22, grown)
	}
}

func TestIndicesGammaRejectsUnsorted(t *testing.T) {
	if _, err := EncodeIndicesGamma([]int{3, 3}); err == nil {
		t.Fatal("expected error for duplicate index")
	}
	if _, err := EncodeIndicesGamma([]int{5, 2}); err == nil {
		t.Fatal("expected error for decreasing index")
	}
}

// TestIndicesGammaCompressionRatio reproduces the claim behind Figure 9:
// dense TopK index sets compress far below the naive 4 bytes/index.
func TestIndicesGammaCompressionRatio(t *testing.T) {
	r := vec.NewRNG(3)
	dim := 100000
	k := dim * 37 / 100 // JWINS average sharing fraction
	idx := r.SampleWithoutReplacement(dim, k)
	buf, err := EncodeIndicesGamma(idx)
	if err != nil {
		t.Fatal(err)
	}
	naive := 4 * k
	ratio := float64(naive) / float64(len(buf))
	if ratio < 5 {
		t.Fatalf("gamma compression ratio %.1f too low (got %d bytes for %d indices)", ratio, len(buf), k)
	}
	t.Logf("gamma metadata compression: %.1fx (%d -> %d bytes)", ratio, naive, len(buf))
}

func TestQuickIndicesGamma(t *testing.T) {
	f := func(seed uint64, rawDim uint16, rawFrac uint8) bool {
		dim := int(rawDim)%5000 + 1
		k := int(rawFrac) % (dim + 1)
		idx := vec.NewRNG(seed).SampleWithoutReplacement(dim, k)
		buf, err := EncodeIndicesGamma(idx)
		if err != nil {
			return false
		}
		got, err := DecodeIndicesGamma(buf, k)
		if err != nil {
			return false
		}
		for i := range idx {
			if got[i] != idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// specialBits are float32 bit patterns a Gaussian never produces.
var specialBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x00400000, 0x807fffff, // subnormals
	0x00800000, 0x7f7fffff, 0xff7fffff, // smallest normal, ±MaxFloat32
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00001, // quiet NaNs, one negative with a payload
	0x7f800001, 0x7fa00000, 0xffbfffff, // signalling NaNs
}

// testFloatRoundTrip: a codec carries bit patterns, so every float32 decodes
// to its own bits — the specials above, one by one and together, a Gaussian
// vector and uniformly random patterns.
func testFloatRoundTrip(t *testing.T, fc FloatCodec) {
	t.Helper()
	r := vec.NewRNG(9)
	random := make([]uint32, 1000)
	for i := range random {
		random[i] = uint32(r.Uint64())
	}
	var gauss []uint32
	for _, v := range gaussianValues(1000, 0.1, 9) {
		gauss = append(gauss, math.Float32bits(v))
	}
	cases := [][]uint32{nil, specialBits, gauss, random}
	for _, b := range specialBits {
		cases = append(cases, []uint32{b})
	}
	for _, bits := range cases {
		vals := make([]float32, len(bits))
		for i, b := range bits {
			vals[i] = math.Float32frombits(b)
		}
		buf, err := fc.AppendEncode(nil, vals)
		if err != nil {
			t.Fatalf("%s encode: %v", fc.Name(), err)
		}
		got, err := decodeFloats(fc, buf, len(vals))
		if err != nil {
			t.Fatalf("%s decode: %v", fc.Name(), err)
		}
		for i, want := range bits {
			if have := math.Float32bits(got[i]); have != want {
				t.Fatalf("%s value %d: bits %08x, want %08x", fc.Name(), i, have, want)
			}
		}
	}
}

func TestRaw32RoundTrip(t *testing.T)        { testFloatRoundTrip(t, Raw32{}) }
func TestPlaneFlate32RoundTrip(t *testing.T) { testFloatRoundTrip(t, PlaneFlate32{}) }

// TestPlaneFlateCompresses checks that weight-like data (many values of
// similar magnitude) actually shrinks, which is the reason the paper applies
// a float compressor at all.
func TestPlaneFlateCompresses(t *testing.T) {
	vals := gaussianValues(20000, 0.05, 10)
	buf, err := PlaneFlate32{}.AppendEncode(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	raw := 4 * len(vals)
	if len(buf) >= raw {
		t.Fatalf("flate32 did not compress: %d >= %d", len(buf), raw)
	}
	t.Logf("flate32: %d -> %d bytes (%.2fx)", raw, len(buf), float64(raw)/float64(len(buf)))
}

func TestEncodeDecodeSparseGamma(t *testing.T) {
	sv := SparseVector{
		Dim:     100,
		Indices: []int{1, 7, 42, 99},
		Values:  []float32{0.5, -1.25, 3, 4.75},
	}
	for _, fc := range []FloatCodec{Raw32{}, PlaneFlate32{}} {
		buf, bd, err := EncodeSparse(sv, IndexGamma, fc)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		if bd.Model+bd.Meta != len(buf) {
			t.Fatalf("%s: breakdown %d+%d != len %d", fc.Name(), bd.Model, bd.Meta, len(buf))
		}
		got, err := decodeSparse(buf)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		if got.Dim != sv.Dim || len(got.Indices) != 4 || len(got.Values) != 4 {
			t.Fatalf("%s: got %+v", fc.Name(), got)
		}
		for i := range sv.Indices {
			if got.Indices[i] != sv.Indices[i] {
				t.Fatalf("%s: indices %v", fc.Name(), got.Indices)
			}
			if got.Values[i] != sv.Values[i] {
				t.Fatalf("%s: values %v", fc.Name(), got.Values)
			}
		}
	}
}

func TestEncodeDecodeSparseSeed(t *testing.T) {
	seed := uint64(12345)
	dim := 500
	count := 50
	idx := SeededIndices(seed, dim, count)
	vals := make([]float32, count)
	for i := range vals {
		vals[i] = float32(i) * 0.5
	}
	sv := SparseVector{Dim: dim, Seed: seed, Values: vals}
	buf, bd, err := EncodeSparse(sv, IndexSeed, Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	// Seeded metadata is constant-size: header + seed, independent of count.
	if bd.Meta != 10+8+4 {
		t.Fatalf("seed metadata = %d bytes", bd.Meta)
	}
	got, err := decodeSparse(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if got.Indices[i] != idx[i] {
			t.Fatalf("regenerated indices differ at %d: %d vs %d", i, got.Indices[i], idx[i])
		}
	}
}

func TestEncodeDecodeSparseDense(t *testing.T) {
	vals := []float32{1, 2, 3}
	sv := SparseVector{Dim: 3, Values: vals}
	buf, bd, err := EncodeSparse(sv, IndexDense, Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Model != 12 {
		t.Fatalf("model bytes = %d, want 12", bd.Model)
	}
	got, err := decodeSparse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Indices != nil {
		t.Fatal("dense payload should have nil indices")
	}
	if len(got.Values) != 3 {
		t.Fatalf("values: %v", got.Values)
	}
}

func TestEncodeSparseValidation(t *testing.T) {
	if _, _, err := EncodeSparse(SparseVector{Dim: 3, Values: []float32{1}}, IndexDense, Raw32{}); err == nil {
		t.Fatal("dense with wrong count should error")
	}
	if _, _, err := EncodeSparse(SparseVector{Dim: 3, Indices: []int{0}, Values: []float32{1, 2}}, IndexGamma, Raw32{}); err == nil {
		t.Fatal("gamma with mismatched lengths should error")
	}
}

func TestDecodeSparseCorrupt(t *testing.T) {
	sv := SparseVector{Dim: 10, Indices: []int{1, 5}, Values: []float32{1, 2}}
	buf, _, err := EncodeSparse(sv, IndexGamma, Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 5, 9, len(buf) - 1} {
		if _, err := decodeSparse(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	bad := append([]byte{}, buf...)
	bad[0] = 99 // invalid index mode
	if _, err := decodeSparse(bad); err == nil {
		t.Fatal("invalid mode not detected")
	}
	// 2 and 3 are the retired codecs' IDs, 99 was never assigned.
	for _, id := range []byte{2, 3, 99} {
		bad := append([]byte{}, buf...)
		bad[1] = id
		if _, err := decodeSparse(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("float codec id %d: got %v, want ErrCorrupt", id, err)
		}
	}
}

func TestQuickSparseRoundTrip(t *testing.T) {
	f := func(seed uint64, rawDim uint16, rawK uint16) bool {
		dim := int(rawDim)%2000 + 1
		k := int(rawK) % (dim + 1)
		r := vec.NewRNG(seed)
		idx := r.SampleWithoutReplacement(dim, k)
		vals := make([]float32, k)
		for i := range vals {
			vals[i] = float32(r.NormFloat64())
		}
		sv := SparseVector{Dim: dim, Indices: idx, Values: vals}
		buf, _, err := EncodeSparse(sv, IndexGamma, PlaneFlate32{})
		if err != nil {
			return false
		}
		got, err := decodeSparse(buf)
		if err != nil {
			return false
		}
		for i := range idx {
			if got.Indices[i] != idx[i] || math.Float32bits(got.Values[i]) != math.Float32bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
