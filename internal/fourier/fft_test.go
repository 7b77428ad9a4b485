package fourier

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/vec"
)

const tol = 1e-9

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1, 0, 0, 0] is [1, 1, 1, 1].
	x := []complex128{1, 0, 0, 0}
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > tol {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
	// DFT of a pure tone lands in a single bin.
	n := 64
	tone := make([]complex128, n)
	for i := range tone {
		tone[i] = complex(math.Cos(2*math.Pi*5*float64(i)/float64(n)), 0)
	}
	FFT(tone)
	for i, v := range tone {
		mag := cmplx.Abs(v)
		if i == 5 || i == n-5 {
			if math.Abs(mag-float64(n)/2) > 1e-6 {
				t.Fatalf("tone bin %d magnitude %v, want %v", i, mag, float64(n)/2)
			}
		} else if mag > 1e-6 {
			t.Fatalf("leakage at bin %d: %v", i, mag)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	rng := vec.NewRNG(21)
	for _, n := range []int{1, 2, 8, 64, 1024} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-8 {
				t.Fatalf("n=%d: round trip error at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestTransformerRoundTrip(t *testing.T) {
	rng := vec.NewRNG(25)
	for _, n := range []int{2, 5, 64, 100, 1000} {
		tr, err := NewTransformer(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		coeffs := make([]float64, tr.CoeffLen())
		tr.Forward(x, coeffs)
		y := make([]float64, n)
		tr.Inverse(coeffs, y)
		if mse := vec.MSE(x, y); mse > 1e-12 {
			t.Fatalf("n=%d: round-trip MSE %v", n, mse)
		}
	}
}

func TestNewTransformerError(t *testing.T) {
	if _, err := NewTransformer(0); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestEmptyInputs(t *testing.T) {
	FFT(nil)
	IFFT(nil)
}
