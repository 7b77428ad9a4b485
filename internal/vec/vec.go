// Package vec provides flat float64 vector math and deterministic random
// number generation used throughout the repository. Decentralized learning
// algorithms in this codebase treat models as flat parameter vectors, so
// these primitives are on the hot path of every training round.
package vec

import (
	"fmt"
	"slices"
)

// Grow reslices *buf to length n, reallocating only when its capacity is
// short, and returns it. Contents are unspecified (a recycled buffer keeps
// its last user's values), so the caller must write every element before
// reading any.
func Grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// AppendNarrow appends every element of v, narrowed to float32, to dst
// (which may be recycled scratch sliced to zero length) and returns the
// extended slice: the dense counterpart of sparsify.AppendGather, for
// payloads that carry a whole vector.
func AppendNarrow(dst []float32, v []float64) []float32 {
	n := len(dst)
	dst = slices.Grow(dst, len(v))[:n+len(v)]
	out := dst[n:]
	for i, x := range v {
		out[i] = float32(x)
	}
	return dst
}

// Sub computes dst[i] -= src[i]. It panics if lengths differ.
func Sub(dst, src []float64) {
	mustSameLen(len(dst), len(src))
	for i, v := range src {
		dst[i] -= v
	}
}

// DiffInto computes dst[i] = a[i] - b[i] without allocating. It panics if
// lengths differ. dst may alias a or b.
func DiffInto(dst, a, b []float64) {
	mustSameLen(len(a), len(b))
	mustSameLen(len(dst), len(a))
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// MSE returns the mean squared error between a and b.
// It panics if lengths differ or if both are empty.
func MSE(a, b []float64) float64 {
	mustSameLen(len(a), len(b))
	if len(a) == 0 {
		panic("vec: MSE of empty vectors")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s / float64(len(a))
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: length mismatch %d != %d", a, b))
	}
}
