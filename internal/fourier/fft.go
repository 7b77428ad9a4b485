// Package fourier implements the fast Fourier transform used as the
// frequency-domain baseline in the paper's Figure 2 (wavelet vs FFT vs
// random-sampling reconstruction error). It provides an iterative radix-2
// Cooley-Tukey transform for power-of-two lengths, plus a real-signal
// sparsifying Transform that zero-pads its input to a power of two and plugs
// into the same interface as the DWT.
package fourier

import (
	"math"
	"math/cmplx"
)

// FFT computes the in-place forward discrete Fourier transform of x.
// len(x) must be a power of two.
func FFT(x []complex128) {
	fftRadix2(x, false)
}

// IFFT computes the in-place inverse DFT (normalized by 1/n) of x.
// len(x) must be a power of two.
func IFFT(x []complex128) {
	fftRadix2(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("fourier: radix-2 FFT requires a power-of-two length")
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		mask := n >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wBase
			}
		}
	}
}
