package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/vec"
)

func randomValues(n int, seed uint64) []float32 {
	return gaussianValues(n, 1, seed)
}

// repeat returns n copies of v narrowed to float32.
func repeat(v float64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(v)
	}
	return out
}

// TestAppendEncodePreservesPrefix: appending after existing content must
// keep that content and append exactly the bytes an empty buffer receives,
// for every codec.
func TestAppendEncodePreservesPrefix(t *testing.T) {
	vals := randomValues(513, 7)
	for _, fc := range []FloatCodec{Raw32{}, PlaneFlate32{}} {
		plain, err := fc.AppendEncode(nil, vals)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		appended, err := fc.AppendEncode([]byte("prefix"), vals)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		if !bytes.HasPrefix(appended, []byte("prefix")) {
			t.Fatalf("%s: AppendEncode clobbered the prefix", fc.Name())
		}
		if !bytes.Equal(appended[len("prefix"):], plain) {
			t.Fatalf("%s: AppendEncode after a prefix differs from AppendEncode into nil", fc.Name())
		}
	}
}

// TestDecodeIntoIgnoresDirtyScratch: DecodeInto into dirty scratch must
// reproduce DecodeInto into zeroed scratch exactly, for every codec.
func TestDecodeIntoIgnoresDirtyScratch(t *testing.T) {
	vals := randomValues(257, 9)
	for _, fc := range []FloatCodec{Raw32{}, PlaneFlate32{}} {
		buf, err := fc.AppendEncode(nil, vals)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		want, err := decodeFloats(fc, buf, len(vals))
		if err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		got := make([]float32, len(vals))
		for i := range got {
			got[i] = float32(math.Inf(1)) // dirty scratch
		}
		if err := fc.DecodeInto(buf, got); err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("%s: value %d: dirty scratch %v != zeroed scratch %v", fc.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestEncodeSparseWithScratchReuse: repeated encodes through one scratch must
// keep producing payloads identical to the scratch-free path, across modes
// and changing sizes (shrinking and growing reuse).
func TestEncodeSparseWithScratchReuse(t *testing.T) {
	var s EncodeScratch
	r := vec.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		dim := 200 + r.Intn(800)
		k := 1 + r.Intn(dim)
		idx := vec.NewRNG(uint64(trial)).SampleWithoutReplacement(dim, k)
		vals := randomValues(k, uint64(trial)*3+1)
		sv := SparseVector{Dim: dim, Indices: idx, Values: vals}
		want, wantBD, err := EncodeSparse(sv, IndexGamma, PlaneFlate32{})
		if err != nil {
			t.Fatal(err)
		}
		got, gotBD, err := EncodeSparseWith(&s, sv, IndexGamma, PlaneFlate32{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) || wantBD != gotBD {
			t.Fatalf("trial %d: scratch encode differs (bd %+v vs %+v)", trial, gotBD, wantBD)
		}
	}
}

// TestDecodeSparseIntoScratchReuse: one SparseVector decoded repeatedly from
// payloads of different shapes (gamma, dense, seeded) must always match the
// decode into a fresh vector.
func TestDecodeSparseIntoScratchReuse(t *testing.T) {
	const dim = 300
	dense := SparseVector{Dim: dim, Values: randomValues(dim, 1)}
	idx := vec.NewRNG(2).SampleWithoutReplacement(dim, 40)
	sparse := SparseVector{Dim: dim, Indices: idx, Values: randomValues(40, 3)}
	seeded := SparseVector{Dim: dim, Seed: 99, Values: randomValues(25, 4)}

	bufDense, _, err := EncodeSparse(dense, IndexDense, Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	bufSparse, _, err := EncodeSparse(sparse, IndexGamma, PlaneFlate32{})
	if err != nil {
		t.Fatal(err)
	}
	bufSeeded, _, err := EncodeSparse(seeded, IndexSeed, Raw32{})
	if err != nil {
		t.Fatal(err)
	}

	var sv SparseVector
	for trial := 0; trial < 3; trial++ { // cycle so every shape follows every other
		for _, buf := range [][]byte{bufSparse, bufDense, bufSeeded, bufDense} {
			want, err := decodeSparse(buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := DecodeSparseInto(&sv, buf); err != nil {
				t.Fatal(err)
			}
			if sv.Dim != want.Dim || sv.Seed != want.Seed {
				t.Fatalf("header differs: %+v vs %+v", sv, want)
			}
			if (sv.Indices == nil) != (want.Indices == nil) || len(sv.Indices) != len(want.Indices) {
				t.Fatalf("index shape differs: %v vs %v", sv.Indices, want.Indices)
			}
			for i := range want.Indices {
				if sv.Indices[i] != want.Indices[i] {
					t.Fatalf("index %d differs", i)
				}
			}
			if len(sv.Values) != len(want.Values) {
				t.Fatalf("value count differs: %d vs %d", len(sv.Values), len(want.Values))
			}
			for i := range want.Values {
				if sv.Values[i] != want.Values[i] {
					t.Fatalf("value %d differs: %v vs %v", i, sv.Values[i], want.Values[i])
				}
			}
		}
	}
}

// TestDecodeSparseRejectsAbsurdHeaders: corrupt count/dim headers must yield
// ErrCorrupt before any count-sized allocation — a hostile payload must not
// OOM the decoder.
func TestDecodeSparseRejectsAbsurdHeaders(t *testing.T) {
	legit, _, err := EncodeSparse(SparseVector{Dim: 8, Values: randomValues(8, 1)}, IndexDense, Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), legit...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"count>dim": corrupt(func(b []byte) {
			b[6], b[7], b[8], b[9] = 0xF0, 0xFF, 0xFF, 0x7F // count ~2^31
		}),
		"dense giant dim tiny values": corrupt(func(b []byte) {
			// dim = count = 2^28 but the value section stays 32 bytes.
			b[2], b[3], b[4], b[5] = 0, 0, 0, 0x10
			b[6], b[7], b[8], b[9] = 0, 0, 0, 0x10
		}),
	}
	for name, buf := range cases {
		if _, err := decodeSparse(buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestAppendDecodeIndicesGamma round-trips through dirty scratch.
func TestAppendDecodeIndicesGamma(t *testing.T) {
	idx := []int{0, 3, 4, 100, 101, 4095}
	buf, err := AppendIndicesGamma(nil, idx)
	if err != nil {
		t.Fatal(err)
	}
	scratch := []int{9, 9, 9}
	got, err := AppendDecodeIndicesGamma(scratch[:0], buf, len(idx))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(idx) {
		t.Fatalf("len %d != %d", len(got), len(idx))
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("index %d: %d != %d", i, got[i], idx[i])
		}
	}
}

// TestDecodeHotPathAllocationFree: with warm scratch, the raw32 sparse decode
// (the repository's own pipeline, no compress/flate internals) must not
// allocate at all, and the flate32 path must stay within the handful of
// allocations compress/flate's inflater makes per dynamic block.
func TestDecodeHotPathAllocationFree(t *testing.T) {
	const dim = 4096
	idx := vec.NewRNG(5).SampleWithoutReplacement(dim, dim/3)
	vals := randomValues(dim/3, 6)
	sv := SparseVector{Dim: dim, Indices: idx, Values: vals}
	buf, _, err := EncodeSparse(sv, IndexGamma, Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	var dst SparseVector
	if err := DecodeSparseInto(&dst, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeSparseInto(&dst, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("raw32 DecodeSparseInto allocates %v per op, want 0", allocs)
	}
}
