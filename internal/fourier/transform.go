package fourier

import "fmt"

// Transformer maps real vectors to a real coefficient vector through the FFT,
// mirroring the dwt.Transform interface so the Figure 2 experiment can swap
// transforms. The complex spectrum of a length-p real signal is Hermitian, so
// it is fully described by p real numbers; we store them as
// [Re X_0, Re X_{p/2}, Re X_1, Im X_1, ..., Re X_{p/2-1}, Im X_{p/2-1}]
// for even p. Sparsifying this real vector and inverting stays within real
// signals. The input is zero-padded to the next power of two.
type Transformer struct {
	n      int // original length
	padded int
	buf    []complex128
}

// NewTransformer builds an FFT transformer for real input vectors of length n.
func NewTransformer(n int) (*Transformer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fourier: input length must be positive, got %d", n)
	}
	p := 2
	for p < n {
		p <<= 1
	}
	return &Transformer{n: n, padded: p, buf: make([]complex128, p)}, nil
}

// CoeffLen returns the real coefficient vector length (padded length).
func (t *Transformer) CoeffLen() int { return t.padded }

// Forward writes the packed real spectrum of x into out.
func (t *Transformer) Forward(x, out []float64) {
	if len(x) != t.n || len(out) != t.padded {
		panic("fourier: Forward length mismatch")
	}
	for i := 0; i < t.padded; i++ {
		if i < t.n {
			t.buf[i] = complex(x[i], 0)
		} else {
			t.buf[i] = 0
		}
	}
	FFT(t.buf)
	p := t.padded
	out[0] = real(t.buf[0])
	out[1] = real(t.buf[p/2])
	for k := 1; k < p/2; k++ {
		out[2*k] = real(t.buf[k])
		out[2*k+1] = imag(t.buf[k])
	}
}

// Inverse reconstructs the real signal from the packed spectrum.
func (t *Transformer) Inverse(coeffs, out []float64) {
	if len(coeffs) != t.padded || len(out) != t.n {
		panic("fourier: Inverse length mismatch")
	}
	p := t.padded
	t.buf[0] = complex(coeffs[0], 0)
	t.buf[p/2] = complex(coeffs[1], 0)
	for k := 1; k < p/2; k++ {
		t.buf[k] = complex(coeffs[2*k], coeffs[2*k+1])
		t.buf[p-k] = complex(coeffs[2*k], -coeffs[2*k+1])
	}
	IFFT(t.buf)
	for i := 0; i < t.n; i++ {
		out[i] = real(t.buf[i])
	}
}
