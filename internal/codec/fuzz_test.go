package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

// fuzzSeedPayloads builds one valid payload per (index mode, codec) pair —
// the corpus the fuzzer mutates from, so it starts inside the wire format
// instead of rediscovering the header layout bit by bit — plus a dense one of
// specialBits per codec, and the raw32 ones again under each retired codec ID,
// which the decoder must reject.
func fuzzSeedPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	vals := []float32{0.5, -1.25, 3.75, 0, -0.0625, 2}
	dense := SparseVector{Dim: 6, Values: vals}
	sparse := SparseVector{Dim: 40, Indices: []int{1, 4, 17, 18, 31, 39}, Values: vals}
	seeded := SparseVector{Dim: 40, Seed: 0xfeed, Values: vals}
	specials := SparseVector{Dim: len(specialBits), Values: make([]float32, len(specialBits))}
	for i, b := range specialBits {
		specials.Values[i] = math.Float32frombits(b)
	}
	codecs := []FloatCodec{Raw32{}, PlaneFlate32{}}
	var out [][]byte
	for _, fc := range codecs {
		for _, c := range []struct {
			sv   SparseVector
			mode IndexMode
		}{{dense, IndexDense}, {sparse, IndexGamma}, {seeded, IndexSeed}, {specials, IndexDense}} {
			buf, _, err := EncodeSparse(c.sv, c.mode, fc)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, buf)
		}
	}
	for _, id := range []byte{2, 3} {
		for _, raw := range out[:3] {
			buf := bytes.Clone(raw)
			buf[1] = id
			out = append(out, buf)
		}
	}
	return out
}

// FuzzDecodeSparseInto hammers the payload decoder with mutated wire bytes:
// it must never panic or allocate proportionally to a corrupt header's
// claims, anything it accepts must satisfy the invariants the aggregation
// path relies on without further checks (count within dim, indices strictly
// increasing and in range), and the round trip is exact: re-encoded with its
// own index mode and codec, an accepted payload decodes to the same support
// and the same float32 bits, NaNs (signalling ones too) included.
func FuzzDecodeSparseInto(f *testing.F) {
	for _, buf := range fuzzSeedPayloads(f) {
		f.Add(buf)
	}
	// The encoder above writes literal-only Huffman blocks and stored blocks,
	// which inflateLiterals reads; payloads of the pre-PR-15 encoder keep the
	// other shape in the corpus — LZ matches and one dynamic block across
	// planes — which it declines and compress/flate reads.
	for _, p := range parentFlate32Payloads {
		f.Add(mustHex(f, p.hex))
	}
	// A few structurally corrupt mutants to steer early coverage.
	f.Add([]byte{})
	f.Add([]byte{1, 0, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{2, 3, 40, 0, 0, 0, 6, 0, 0, 0, 0xed, 0xfe, 0, 0, 0, 0, 0, 0}) // a retired codec id
	var sv, back SparseVector
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		// The harness bounds the claimed dimension: a 10-byte header may
		// declare dim up to 2^32, and a flate32 value section may hold a
		// thousand values per byte, so dim itself is the only allocation bound.
		if len(data) >= 10 {
			if dim := binary.LittleEndian.Uint32(data[2:]); dim > 1<<20 {
				return
			}
		}
		// Reuse one scratch vector across inputs — the engines decode every
		// payload into warm scratch, so stale Indices/Values contents must
		// never leak into a later decode.
		if err := DecodeSparseInto(&sv, data); err != nil {
			return
		}
		if len(sv.Values) > sv.Dim {
			t.Fatalf("decoded %d values for dim %d", len(sv.Values), sv.Dim)
		}
		if sv.Indices != nil {
			if len(sv.Indices) != len(sv.Values) {
				t.Fatalf("%d indices for %d values", len(sv.Indices), len(sv.Values))
			}
			prev := -1
			for _, idx := range sv.Indices {
				if idx <= prev || idx >= sv.Dim {
					t.Fatalf("index %d out of order or range (prev %d, dim %d)", idx, prev, sv.Dim)
				}
				prev = idx
			}
		}
		fc, _ := floatCodecFromID(data[1]) // the decode accepted the id
		again, _, err := EncodeSparse(sv, IndexMode(data[0]), fc)
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if err := DecodeSparseInto(&back, again); err != nil {
			t.Fatalf("decoding the re-encoded payload: %v", err)
		}
		if back.Dim != sv.Dim || len(back.Values) != len(sv.Values) || !slices.Equal(back.Indices, sv.Indices) {
			t.Fatalf("re-encoded payload decodes to another support")
		}
		for i, v := range sv.Values {
			if have, want := math.Float32bits(back.Values[i]), math.Float32bits(v); have != want {
				t.Fatalf("value %d: bits %08x after the round trip, want %08x", i, have, want)
			}
		}
	})
}

// literalBlock hand-builds one final dynamic block whose literal code is 'A'
// and end-of-block, one bit each, followed by "AAAA" and end-of-block. Its
// lone distance code has length distLen, 1 or 2; at 2 the code is incomplete,
// and compress/flate rejects the header although no symbol ever uses it.
func literalBlock(distLen uint) []byte {
	var (
		buf []byte
		nb  uint
	)
	put := func(v, n uint) { // n bits of v, least significant first
		for ; n > 0; n-- {
			if nb%8 == 0 {
				buf = append(buf, 0)
			}
			buf[len(buf)-1] |= byte(v&1) << (nb % 8)
			v >>= 1
			nb++
		}
	}
	code := func(c, l uint) { // a Huffman code, most significant bit first
		for ; l > 0; l-- {
			put(c>>(l-1), 1)
		}
	}
	put(1, 1)  // final
	put(2, 2)  // dynamic
	put(0, 5)  // HLIT: 257 literal/length codes
	put(0, 5)  // HDIST: one distance code
	put(14, 4) // HCLEN: 18 code-length code lengths, codeOrder up to symbol 1
	var clens [19]uint
	clens[18], clens[1], clens[2] = 1, 2, 2 // codes 0, 10, 11
	for _, sym := range codeOrder[:18] {
		put(clens[sym], 3)
	}
	code(0, 1) // 65 zeros: literals 0..64
	put(65-11, 7)
	code(2, 2) // 'A': length 1
	code(0, 1) // 190 zeros: literals 66..255
	put(138-11, 7)
	code(0, 1)
	put(52-11, 7)
	code(2, 2)         // end-of-block: length 1
	code(distLen+1, 2) // the distance code
	for i := 0; i < 4; i++ {
		code(0, 1) // 'A'
	}
	code(1, 1)               // end-of-block
	return append(buf, 0, 0) // every symbol then has maxCodeLen bits behind it
}

// TestInflateLiteralsDeclinesIncompleteDistanceCode: a distance code no
// symbol uses still has to be one compress/flate accepts, so inflateLiterals
// declines literalBlock(2) and DecodeInto returns compress/flate's verdict.
func TestInflateLiteralsDeclinesIncompleteDistanceCode(t *testing.T) {
	block := literalBlock(2)
	if inflateLiterals(block, make([]byte, 4)) {
		t.Fatal("inflateLiterals accepted a block whose distance code is incomplete")
	}
	_, flateErr := io.ReadFull(flate.NewReader(bytes.NewReader(block)), make([]byte, 4))
	var corrupt flate.CorruptInputError
	if !errors.As(flateErr, &corrupt) {
		t.Fatalf("compress/flate read the block: %v", flateErr)
	}
	err := PlaneFlate32{}.DecodeInto(block, make([]float32, 1))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), flateErr.Error()) {
		t.Fatalf("DecodeInto = %v, want ErrCorrupt carrying %q", err, flateErr)
	}
	// With a distance code of length 1 the same block is read by both.
	valid := literalBlock(1)
	got, want := make([]byte, 4), make([]byte, 4)
	if !inflateLiterals(valid, got) {
		t.Fatal("inflateLiterals declined the block with a one-bit distance code")
	}
	if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(valid)), want); err != nil || string(got) != "AAAA" || string(want) != "AAAA" {
		t.Fatalf("inflated %q and %q (%v), want AAAA from both", got, want, err)
	}
}

// FuzzInflateLiterals is differential: whenever inflateLiterals accepts a
// stream, io.ReadFull over a bare compress/flate reader succeeds with the same
// bytes. It may decline anything; DecodeInto then asks compress/flate. n is
// the number of values, so 4n plane bytes are asked for.
func FuzzInflateLiterals(f *testing.F) {
	add := func(stream []byte, n int) {
		f.Add(stream, uint16(min(n, 1<<16-1)))
	}
	for _, c := range flate32Cases() {
		if n := len(c.vals); n <= 700 || n == 3552 || n == 14000 || n == 45221 || (n == 200000 && c.weights) {
			stream, err := PlaneFlate32{}.AppendEncode(nil, c.vals) // 3552: codes longer than the table; 200000: plane 0 in four blocks
			if err != nil {
				f.Fatal(err)
			}
			add(stream, n)
			if c.name == "gauss-700" { // cut at every block boundary: after plane 0, the sync marker, the stored block
				for _, tail := range []int{5, 5 + 2100, 5 + 2105, 5 + 2110} {
					add(stream[:len(stream)-tail], n)
				}
				add(append(stream, 0xde, 0xad), n) // bytes after the final block
				mismatch := bytes.Clone(stream)
				mismatch[len(mismatch)-5-2100-2]++ // NLEN of the stored block
				add(mismatch, n)
			}
		}
	}
	for _, p := range parentFlate32Payloads {
		payload := mustHex(f, p.hex)
		add(payload[len(payload)-42:], 48)
	}
	var fixed bytes.Buffer
	fw, _ := flate.NewWriter(&fixed, flate.BestSpeed) // a short input deflates to one fixed-Huffman block
	fw.Write([]byte("fixed block."))
	fw.Close()
	add(fixed.Bytes(), 3)
	add(nil, 0)
	add(literalBlock(2), 1) // declined only for its unused, incomplete distance code
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		got := make([]byte, 4*int(n))
		if !inflateLiterals(data, got) {
			return
		}
		want := make([]byte, len(got))
		if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(data)), want); err != nil {
			t.Fatalf("inflateLiterals accepted a stream compress/flate rejects: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("inflateLiterals and compress/flate inflate to different bytes")
		}
	})
}
