package codec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// WriteEliasGamma appends the Elias gamma code of v (v >= 1) to w:
// floor(log2 v) zero bits followed by the binary representation of v.
func WriteEliasGamma(w *BitWriter, v uint64) {
	if v == 0 {
		panic("codec: Elias gamma is undefined for 0")
	}
	n := uint(bits.Len64(v))
	if n <= 32 { // the whole code in one write: v has n-1 leading zeros to spare
		w.WriteBits(v, 2*n-1)
		return
	}
	w.WriteBits(0, n-1)
	w.WriteBits(v, n)
}

// ReadEliasGamma decodes one Elias gamma code from r: in one step when the
// code lies within the next 64 bits r peeks at and in the buffer, and
// otherwise (a code over 57 bits, or a truncated one) a bit at a time.
func ReadEliasGamma(r *BitReader) (uint64, error) {
	w, avail := r.peek()
	if z := uint(bits.LeadingZeros64(w)); 2*z+1 <= avail { // never at w = 0
		r.off += int(2*z + 1)
		return w >> (63 - 2*z), nil
	}
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

// AppendIndicesGamma appends to dst (which may be nil or a reused buffer
// sliced to zero length) a strictly increasing list of non-negative indices
// as Elias gamma codes over the difference array (first index + 1, then
// successive gaps), exactly the scheme the paper adopts from QSGD for
// sparsification metadata. An empty index list appends nothing and returns
// dst unchanged.
func AppendIndicesGamma(dst []byte, indices []int) ([]byte, error) {
	if len(indices) == 0 {
		return dst, nil
	}
	w := BitWriter{buf: dst}
	prev := -1
	for pos, idx := range indices {
		if idx <= prev {
			return dst, fmt.Errorf("codec: indices must be strictly increasing (position %d: %d after %d)", pos, idx, prev)
		}
		WriteEliasGamma(&w, uint64(idx-prev)) // gap >= 1
		prev = idx
	}
	return w.Bytes(), nil
}

// AppendDecodeIndicesGamma decodes count indices produced by
// AppendIndicesGamma and appends them to dst, for callers that reuse index
// scratch across payloads.
func AppendDecodeIndicesGamma(dst []int, buf []byte, count int) ([]int, error) {
	if count <= 0 {
		return dst, nil
	}
	// Reserve the slots once instead of append-doubling. Every gamma code is
	// at least one bit, so a count the buffer cannot hold is corrupt and
	// reserves nothing: a forged header cannot force a large allocation.
	if count <= 8*len(buf) {
		dst = slices.Grow(dst, count)
	}
	r := BitReader{buf: buf}
	var w uint64   // bits peeked at r's position, left-aligned
	var avail uint // how many of them lie in buf
	prev := -1
	for i := 0; i < count; i++ {
		var gap uint64
		if z := uint(bits.LeadingZeros64(w)); 2*z+1 <= avail {
			// ReadEliasGamma's one step, on the bits already peeked.
			gap, w, avail = w>>(63-2*z), w<<(2*z+1), avail-(2*z+1)
			r.off += int(2*z + 1)
		} else {
			var err error
			if gap, err = ReadEliasGamma(&r); err != nil {
				return nil, fmt.Errorf("codec: index %d: %w", i, err)
			}
			w, avail = r.peek()
		}
		// Valid gaps never exceed the (u32-bounded) vector dimension; larger
		// ones are corruption, and letting them through would overflow prev
		// into a negative index that panics in downstream scatters.
		if gap > math.MaxUint32 {
			return nil, fmt.Errorf("codec: index %d: gap %d out of range: %w", i, gap, ErrCorrupt)
		}
		prev += int(gap)
		if prev < 0 {
			return nil, fmt.Errorf("codec: index %d overflows: %w", i, ErrCorrupt)
		}
		dst = append(dst, prev)
	}
	return dst, nil
}
