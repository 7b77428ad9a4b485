package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"testing"
)

// fuzzSeedPayloads builds one valid payload per (index mode, codec) pair —
// the corpus the fuzzer mutates from, so it starts inside the wire format
// instead of rediscovering the header layout bit by bit.
func fuzzSeedPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	vals := []float64{0.5, -1.25, 3.75, 0, -0.0625, 2}
	dense := SparseVector{Dim: 6, Values: vals}
	sparse := SparseVector{Dim: 40, Indices: []int{1, 4, 17, 18, 31, 39}, Values: vals}
	seeded := SparseVector{Dim: 40, Seed: 0xfeed, Values: vals}
	codecs := []FloatCodec{Raw32{}, PlaneFlate32{}, XOR32{}, NewQSGD(64, 9)}
	var out [][]byte
	for _, fc := range codecs {
		for _, c := range []struct {
			sv   SparseVector
			mode IndexMode
		}{{dense, IndexDense}, {sparse, IndexGamma}, {seeded, IndexSeed}} {
			buf, _, err := EncodeSparse(c.sv, c.mode, fc)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, buf)
		}
	}
	return out
}

// FuzzDecodeSparseInto hammers the payload decoder with mutated wire bytes:
// it must never panic or allocate proportionally to a corrupt header's
// claims, and anything it accepts must satisfy the invariants the aggregation
// path relies on without further checks (count within dim, indices strictly
// increasing and in range).
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
	f.Add([]byte{2, 3, 40, 0, 0, 0, 6, 0, 0, 0, 0xed, 0xfe, 0, 0, 0, 0, 0, 0})
	var sv SparseVector
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		// The harness bounds the claimed dimension: a 10-byte header may
		// declare dim up to 2^32, and legitimate seeded/QSGD payloads have no
		// per-value size floor, so dim itself is the only allocation bound.
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
	})
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
			stream, err := PlaneFlate32{}.Encode(c.vals) // 3552: codes longer than the table; 200000: plane 0 in four blocks
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
