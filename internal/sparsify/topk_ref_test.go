package sparsify

import "math"

// refTopKWith is TopKIndicesWith as it was before the exponent histogram and
// the branch-free passes: a byte-wise radix select from the most significant
// byte down, then a counting pass and an emit with branches, about six passes
// over v. It is kept, verbatim but for its names, as the "ref" arm of
// BenchmarkTopKWith and a second oracle for the parity tests.
func refTopKWith(s *TopKScratch, v []float64, k int) []int {
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
	for i, x := range v {
		bits[i] = math.Float64bits(math.Abs(x))
	}
	var thresh uint64
	if eq, val := refAllCandidatesEqual(bits, nil, false); eq {
		// Fully tied input (e.g. a freshly zeroed accumulator): the
		// threshold is the common value and the sweep's lowest-index-first
		// tie quota does the whole selection.
		thresh = val
	} else {
		thresh = refRadixThreshold(bits, s.cand[:0], k)
	}
	// Two-pass emit: everything above the threshold is selected; ties at the
	// threshold are filled lowest-index-first by the ascending sweep.
	above := 0
	for _, b := range bits {
		if b > thresh {
			above++
		}
	}
	quota := k - above
	out := s.out[:0]
	for i, b := range bits {
		if b > thresh {
			out = append(out, i)
		} else if b == thresh && quota > 0 {
			quota--
			out = append(out, i)
		}
	}
	return out
}

// refRadixThreshold returns the bit pattern of the k-th largest value in bits,
// refining one byte per pass from the most significant byte down over a
// shrinking candidate set. When every remaining candidate must be selected
// the low bytes are left zero, which the caller's >=-style sweep absorbs.
func refRadixThreshold(bits []uint64, cand []int, k int) uint64 {
	var thresh uint64
	need := k
	compacted := false // false: the candidate set is all of bits
	checkedEqual := false
	for byteIdx := 7; byteIdx >= 0; byteIdx-- {
		shift := uint(byteIdx * 8)
		var hist [256]int
		var total int
		if !compacted {
			total = len(bits)
			for _, b := range bits {
				hist[(b>>shift)&0xff]++
			}
		} else {
			total = len(cand)
			for _, p := range cand {
				hist[(bits[p]>>shift)&0xff]++
			}
		}
		cum := 0
		bsel := 0
		for b := 255; b >= 0; b-- {
			if cum+hist[b] >= need {
				bsel = b
				break
			}
			cum += hist[b]
		}
		thresh |= uint64(bsel) << shift
		need -= cum
		if byteIdx == 0 {
			break
		}
		if hist[bsel] == total {
			// Every candidate shares this byte, so compaction would be a
			// no-op. If the whole set is one repeated value — common for a
			// freshly zeroed accumulator — resolve the threshold in a single
			// comparison pass instead of byte-by-byte.
			if !checkedEqual {
				checkedEqual = true
				if eq, val := refAllCandidatesEqual(bits, cand, compacted); eq {
					return val
				}
			}
			continue
		}
		checkedEqual = false
		if !compacted {
			cand = cand[:0]
			for i, b := range bits {
				if int((b>>shift)&0xff) == bsel {
					cand = append(cand, i)
				}
			}
			compacted = true
		} else {
			w := 0
			for _, p := range cand {
				if int((bits[p]>>shift)&0xff) == bsel {
					cand[w] = p
					w++
				}
			}
			cand = cand[:w]
		}
		if need == len(cand) {
			// All remaining candidates are selected; the unresolved low
			// bytes stay zero and the sweep's tie quota covers them.
			break
		}
		if len(cand) == 1 {
			thresh = bits[cand[0]]
			break
		}
	}
	return thresh
}

// refAllCandidatesEqual reports whether every candidate carries the same bit
// pattern, returning that pattern when so.
func refAllCandidatesEqual(bits []uint64, cand []int, compacted bool) (bool, uint64) {
	if !compacted {
		ref := bits[0]
		for _, b := range bits[1:] {
			if b != ref {
				return false, 0
			}
		}
		return true, ref
	}
	ref := bits[cand[0]]
	for _, p := range cand[1:] {
		if bits[p] != ref {
			return false, 0
		}
	}
	return true, ref
}
