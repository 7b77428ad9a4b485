// Package sparsify selects which coefficients of a flat vector are shared in
// a communication round. JWINS applies TopK to accumulated wavelet-domain
// importance scores; CHOCO applies TopK to the model-difference vector. (The
// random-sampling baseline's seeded uniform subset is codec.SeededIndices.)
package sparsify

import "math"

// TopKIndices returns the indices of the k largest |v[i]| in increasing index
// order, using quickselect (expected O(n)). Ties are broken towards lower
// indices for determinism. k is clamped to [0, len(v)].
func TopKIndices(v []float64, k int) []int {
	var s TopKScratch
	sel := TopKIndicesWith(&s, v, k)
	if sel == nil {
		return nil
	}
	out := make([]int, len(sel))
	copy(out, sel)
	return out
}

// TopKScratch holds the reusable selection buffers of TopKIndicesWith. The
// zero value is ready; a warm scratch makes selection allocation-free.
type TopKScratch struct {
	bits []uint64
	cand []int
	out  []int
}

// TopKIndicesWith is TopKIndices backed by caller-owned scratch. The returned
// slice is owned by s and valid until its next use; selection semantics
// (magnitude ranking, low-index tie-breaking, ascending result) are identical
// to TopKIndices.
//
// Selection is a radix select over the IEEE-754 bit patterns of |v[i]| — for
// non-negative floats, unsigned bit order equals numeric order — in about
// three passes over v:
//  1. the bit patterns, with a histogram of their 11-bit exponents, which
//     names the binade the k-th largest magnitude lies in and how many
//     magnitudes lie above it;
//  2. the indices in that binade, compacted without branches; the threshold's
//     mantissa is then refined a byte at a time (the low nibble last) over
//     those candidates only, each step narrowing them to one digit value;
//  3. a branch-free emit in index order of every magnitude above the
//     threshold and, of those equal to it, the first k minus that many.
//
// The top-k set under (magnitude desc, index asc) ordering is unique, so this
// is output-identical to any comparison-based select. NaN magnitudes order
// above +Inf (deterministically).
func TopKIndicesWith(s *TopKScratch, v []float64, k int) []int {
	n := len(v)
	if k <= 0 {
		return nil
	}
	if cap(s.out) < n {
		s.out = make([]int, n)
	}
	if k >= n {
		all := s.out[:n]
		for i := range all {
			all[i] = i
		}
		return all
	}
	if cap(s.bits) < n {
		s.bits = make([]uint64, n)
		s.cand = make([]int, n)
	}
	bits := s.bits[:n]
	var hist [2048]int
	for i, x := range v {
		b := math.Float64bits(x) &^ (1 << 63)
		bits[i] = b
		hist[b>>52]++
	}
	exp, need := pick(hist[:], k)
	thresh := uint64(exp) << 52
	cand := s.cand[:n]
	w := 0
	for i, b := range bits {
		cand[w] = i
		w += int(equal(b>>52, uint64(exp)))
	}
	cand = cand[:w]
	checkedEqual := false
	for sh := uint(52); sh > 0; {
		width := min(sh, 8) // six bytes, then the low nibble
		sh -= width
		mask := uint64(1)<<width - 1
		var hist [256]int
		for _, p := range cand {
			hist[bits[p]>>sh&mask]++
		}
		d, left := pick(hist[:mask+1], need)
		thresh |= uint64(d) << sh
		need = left
		if hist[d] == len(cand) {
			// Every candidate has this digit, so compacting would keep them
			// all. If they are one repeated value, as in a zeroed accumulator,
			// that value is the threshold.
			if !checkedEqual {
				checkedEqual = true
				if eq, val := allEqual(bits, cand); eq {
					thresh = val
					break
				}
			}
			continue
		}
		checkedEqual = false
		w := 0
		for _, p := range cand {
			cand[w] = p
			w += int(equal(bits[p]>>sh&mask, uint64(d)))
		}
		cand = cand[:w]
	}
	// The candidates are now the magnitudes equal to thresh. need of them are
	// selected, lowest index first, and all k-need above it are.
	out := s.out[:n]
	if w = 0; need == len(cand) {
		for i, b := range bits {
			out[w] = i
			w += int((b-thresh)>>63 ^ 1) // b >= thresh
		}
		return out[:w]
	}
	quota := uint64(need)
	for i, b := range bits {
		tie := equal(b, thresh) & (-quota >> 63) // quota > 0
		out[w] = i
		w += int((thresh-b)>>63 | tie) // b > thresh: both are below 2^63
		quota -= tie
	}
	return out[:w]
}

// pick walks hist from its top digit down and returns the digit whose count,
// with those above it, first reaches need, and how many of its own are needed.
func pick(hist []int, need int) (int, int) {
	d := len(hist) - 1
	for ; hist[d] < need; d-- {
		need -= hist[d]
	}
	return d, need
}

// equal is 1 when a == b and 0 otherwise, without a branch.
func equal(a, b uint64) uint64 {
	x := a ^ b
	return 1 ^ (x|-x)>>63
}

// allEqual reports whether every candidate carries the same bit pattern,
// returning that pattern when so.
func allEqual(bits []uint64, cand []int) (bool, uint64) {
	ref := bits[cand[0]]
	for _, p := range cand[1:] {
		if bits[p] != ref {
			return false, 0
		}
	}
	return true, ref
}

// AppendGather appends v[indices], narrowed to the float32 the wire carries,
// to dst (which may be recycled scratch sliced to zero length) and returns
// the extended slice.
func AppendGather(dst []float32, v []float64, indices []int) []float32 {
	for _, i := range indices {
		dst = append(dst, float32(v[i]))
	}
	return dst
}
