package codec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/vec"
)

// The bit-at-a-time writer, reader and gamma coder this package ran before
// the 64-bit accumulator and the one-step gamma decode: kept verbatim but for
// their names as the oracle of the tests below and the "ref" arm of
// BenchmarkIndicesGamma.

type refBitWriter struct {
	buf  []byte
	cur  byte
	nCur uint // bits currently in cur (0..7)
}

func (w *refBitWriter) WriteBit(b uint) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *refBitWriter) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(uint(v >> uint(i)))
	}
}

func (w *refBitWriter) BitLen() int { return len(w.buf)*8 + int(w.nCur) }

func (w *refBitWriter) Bytes() []byte {
	if w.nCur > 0 {
		w.cur <<= 8 - w.nCur
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

type refBitReader struct {
	buf []byte
	pos int  // byte position
	bit uint // bit position within current byte (0 = MSB)
}

func (r *refBitReader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrCorrupt
	}
	b := uint(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

func (r *refBitReader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("codec: ReadBits(%d): %w", n, ErrCorrupt)
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func refWriteEliasGamma(w *refBitWriter, v uint64) {
	if v == 0 {
		panic("codec: Elias gamma is undefined for 0")
	}
	n := uint(bits.Len64(v)) - 1
	for i := uint(0); i < n; i++ {
		w.WriteBit(0)
	}
	w.WriteBits(v, n+1)
}

func refReadEliasGamma(r *refBitReader) (uint64, error) {
	var n uint
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 63 {
			return 0, fmt.Errorf("codec: gamma prefix too long: %w", ErrCorrupt)
		}
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return 1<<n | rest, nil
}

// refAppendIndicesGamma and refDecodeIndicesGamma are AppendIndicesGamma and
// AppendDecodeIndicesGamma over the reference coder.
func refAppendIndicesGamma(dst []byte, indices []int) []byte {
	if len(indices) == 0 {
		return dst
	}
	w, prev := refBitWriter{buf: dst}, -1
	for _, idx := range indices {
		refWriteEliasGamma(&w, uint64(idx-prev))
		prev = idx
	}
	return w.Bytes()
}

func refDecodeIndicesGamma(dst []int, buf []byte, count int) ([]int, error) {
	r, prev := refBitReader{buf: buf}, -1
	for i := 0; i < count; i++ {
		gap, err := refReadEliasGamma(&r)
		if err != nil {
			return nil, fmt.Errorf("codec: index %d: %w", i, err)
		}
		if gap > math.MaxUint32 {
			return nil, fmt.Errorf("codec: index %d: gap %d out of range: %w", i, gap, ErrCorrupt)
		}
		if prev += int(gap); prev < 0 {
			return nil, fmt.Errorf("codec: index %d overflows: %w", i, ErrCorrupt)
		}
		dst = append(dst, prev)
	}
	return dst, nil
}

// sameResult fails t unless two (value, error) results agree: equal values,
// or errors with the same text that both wrap ErrCorrupt.
func sameResult(t *testing.T, what string, got, want uint64, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && (gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, ErrCorrupt)) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if got != want {
		t.Fatalf("%s: %#x, reference %#x", what, got, want)
	}
}

// TestBitWriterMatchesReference: random widths 0..64, with a flush now and
// then, give the reference's bytes and BitLen after every write.
func TestBitWriterMatchesReference(t *testing.T) {
	r := vec.NewRNG(61)
	for trial := 0; trial < 200; trial++ {
		var w BitWriter
		var ref refBitWriter
		for op := 0; op < r.Intn(300); op++ {
			if r.Intn(50) == 0 {
				if got, want := w.Bytes(), ref.Bytes(); !slices.Equal(got, want) {
					t.Fatalf("trial %d op %d: flushed %x, reference %x", trial, op, got, want)
				}
			}
			v, n := r.Uint64(), uint(r.Intn(65))
			w.WriteBits(v, n)
			ref.WriteBits(v, n)
			if w.BitLen() != ref.BitLen() || w.Len() != ref.BitLen()/8 {
				t.Fatalf("trial %d op %d: BitLen %d Len %d, reference BitLen %d", trial, op, w.BitLen(), w.Len(), ref.BitLen())
			}
		}
		if got, want := w.Bytes(), ref.Bytes(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: wrote %x, reference %x", trial, got, want)
		}
	}
}

// gapValues draws n gamma values: mostly the small gaps of a top-k index
// list, some at and past 2^27 (codes over 55 bits, beyond any one-step
// decode at some bit offsets) and 2^32 (gaps AppendDecodeIndicesGamma
// rejects), and a few up to 2^64-1.
func gapValues(r *vec.RNG, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch r.Intn(16) {
		case 0:
			out[i] = 1<<27 + r.Uint64()%(1<<29)
		case 1:
			out[i] = 1<<32 + r.Uint64()%(1<<33)
		case 2:
			out[i] = r.Uint64() | 1
		default:
			out[i] = 1 + uint64(r.Intn(40))
		}
	}
	return out
}

// TestEliasGammaMatchesReference: random gap lists encode to the reference's
// bytes, and every prefix of the stream, down to each truncation point,
// decodes to the reference's values and fails with the same ErrCorrupt at
// the same code; so does the index-list decode.
func TestEliasGammaMatchesReference(t *testing.T) {
	r := vec.NewRNG(67)
	for trial := 0; trial < 40; trial++ {
		vals := gapValues(r, 1+r.Intn(60))
		var w BitWriter
		ref := refBitWriter{buf: []byte{0xa5}} // a header in front, as payloads have
		w.buf = []byte{0xa5}
		for _, v := range vals {
			WriteEliasGamma(&w, v)
			refWriteEliasGamma(&ref, v)
		}
		buf, want := w.Bytes(), ref.Bytes()
		if !slices.Equal(buf, want) {
			t.Fatalf("trial %d: encoded %x, reference %x", trial, buf, want)
		}
		buf = buf[1:]
		for cut := 0; cut <= len(buf); cut++ {
			rd, refRd := BitReader{buf: buf[:cut]}, refBitReader{buf: buf[:cut]}
			for i := range vals {
				got, err := ReadEliasGamma(&rd)
				want, wantErr := refReadEliasGamma(&refRd)
				sameResult(t, fmt.Sprintf("trial %d cut %d code %d", trial, cut, i), got, want, err, wantErr)
				if err != nil {
					break
				}
			}
			gotIdx, err := DecodeIndicesGamma(buf[:cut], len(vals))
			wantIdx, wantErr := refDecodeIndicesGamma(nil, buf[:cut], len(vals))
			sameResult(t, fmt.Sprintf("trial %d cut %d indices", trial, cut), 0, 0, err, wantErr)
			if !slices.Equal(gotIdx, wantIdx) {
				t.Fatalf("trial %d cut %d: indices %v, reference %v", trial, cut, gotIdx, wantIdx)
			}
		}
	}
}

// TestBitReaderMatchesReference runs random sequences of ReadBit, ReadBits
// (widths 0..66) and ReadEliasGamma over random and mostly-zero bytes
// through both readers, which have to give the same values and errors up to
// the first error.
func TestBitReaderMatchesReference(t *testing.T) {
	r := vec.NewRNG(71)
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, r.Intn(40))
		for i := range buf {
			if trial%2 == 0 || r.Intn(8) == 0 {
				buf[i] = byte(r.Uint64())
			}
		}
		rd, ref := BitReader{buf: buf}, refBitReader{buf: buf}
		for op := 0; ; op++ {
			var got, want uint64
			var err, wantErr error
			switch r.Intn(3) {
			case 0:
				var g, w uint
				g, err = rd.ReadBit()
				w, wantErr = ref.ReadBit()
				got, want = uint64(g), uint64(w)
			case 1:
				n := uint(r.Intn(67))
				got, err = rd.ReadBits(n)
				want, wantErr = ref.ReadBits(n)
			default:
				got, err = ReadEliasGamma(&rd)
				want, wantErr = refReadEliasGamma(&ref)
			}
			sameResult(t, fmt.Sprintf("trial %d op %d", trial, op), got, want, err, wantErr)
			if err != nil {
				break
			}
		}
	}
}

// BenchmarkIndicesGamma encodes and decodes a 20% top-k index list of the
// movielens model (9,044 of 45,221 indices) through warm buffers: "ref" is
// the bit-at-a-time coder, "new" this package's.
func BenchmarkIndicesGamma(b *testing.B) {
	idx := vec.NewRNG(5).SampleWithoutReplacement(45_221, 9_044)
	for _, arm := range []string{"ref", "new"} {
		arm := arm
		b.Run(arm, func(b *testing.B) {
			enc := func(dst []byte) []byte { buf, _ := AppendIndicesGamma(dst, idx); return buf }
			dec := func(dst []int, buf []byte) ([]int, error) { return AppendDecodeIndicesGamma(dst, buf, len(idx)) }
			if arm == "ref" {
				enc = func(dst []byte) []byte { return refAppendIndicesGamma(dst, idx) }
				dec = func(dst []int, buf []byte) ([]int, error) { return refDecodeIndicesGamma(dst, buf, len(idx)) }
			}
			buf := enc(nil)
			out, err := dec(nil, buf)
			if err != nil || !slices.Equal(out, idx) {
				b.Fatalf("round trip: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = enc(buf[:0])
				if out, err = dec(out[:0], buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
