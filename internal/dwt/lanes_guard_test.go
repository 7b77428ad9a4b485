//go:build linux && amd64 && !purego

package dwt

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps n float64s between two inaccessible pages and returns them as
// a slice of capacity n that touches the upper guard (atEnd) or the lower
// one: a load or store one element outside it is a SIGSEGV.
func guarded(t *testing.T, n int, atEnd bool) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	body := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory: nothing to do about a failed unmap
	for _, guard := range [][]byte{mem[:page], mem[page+body:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	data := mem[page : page+n*8]
	if atEnd {
		data = mem[page+body-n*8 : page+body]
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), n)[:n:n]
}

// TestLaneKernelsStayInBounds runs both 4-lane routines with x, approx and
// detail flush against a guard page, first the page after them and then the
// page before, and holds each level to the reference kernels. At n = 8m+2 the
// last quad of the analysis reads x[2i+9] = x[n−1] and the last quad of the
// synthesis reads approx[half−1] and writes x[n−1]: the parity tests would
// miss a load one past that which lands in mapped heap and changes no
// result; here it kills the process.
func TestLaneKernelsStayInBounds(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 path on this CPU")
	}
	w := MustByName("sym2")
	g := w.G()
	rng := rand.New(rand.NewSource(29))
	for _, atEnd := range []bool{true, false} {
		for _, n := range []int{4, 8, 10, 12, 16, 18, 24, 26, 34, 66, 1002, 45_234} {
			half := n / 2
			x, approx, detail := guarded(t, n, atEnd), guarded(t, half, atEnd), guarded(t, half, atEnd)
			copy(x, signal(rng, n, n%3))
			wantA, wantD := make([]float64, half), make([]float64, half)
			AnalyzePeriodicFilters(x, w.H, g, wantA, wantD)
			analyzeLevel(x, w.H, g, approx, detail)
			if !bitsEqual(approx, wantA) || !bitsEqual(detail, wantD) {
				t.Fatalf("n=%d: analysis diverges from the reference kernel", n)
			}
			want := make([]float64, n)
			SynthesizePeriodicFilters(approx, detail, w.H, g, want)
			synthesizeLevel(approx, detail, w.H, g, x)
			if !bitsEqual(x, want) {
				t.Fatalf("n=%d: synthesis diverges from the reference kernel", n)
			}
		}
	}
}
