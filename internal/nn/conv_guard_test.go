//go:build linux && amd64 && !purego

package nn

import (
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/vec"
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

// TestConvKernelStaysInBounds runs every tile class of the vector path with
// the three buffers the assembly routine addresses (the input planes, the
// packed kernels and the sum tile) flush against a guard page, first the
// page after them and then the page before. The parity tests would miss an
// over-read that lands in mapped heap and does not change a sum; here it
// kills the process.
func TestConvKernelStaysInBounds(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 path on this CPU")
	}
	for _, atEnd := range []bool{true, false} {
		for i, cc := range vectorTileCases() {
			rng := vec.NewRNG(uint64(2000 + i))
			c := NewConv2D(cc.inC, cc.outC, cc.k, cc.pad, rng)
			fillSigned(c.W.Data, rng)
			fillSigned(c.B.Data, rng)
			x := &Tensor{Shape: []int{cc.n, cc.inC, cc.h, cc.w}, Data: guarded(t, cc.n*cc.inC*cc.h*cc.w, atEnd)}
			fillSigned(x.Data, rng)
			if cc.edges {
				plantEdges(x.Data, cc.h, cc.w)
			}
			pk := guarded(t, cc.outC/4*cc.inC*100, atEnd)
			tile := guarded(t, c.OutSize(cc.h)*c.OutSize(cc.w)*4, atEnd)
			c.pk.t.Data, c.tile.t.Data = pk[:0], tile[:0]
			y := c.Forward(x, false)
			if &c.pk.t.Data[0] != &pk[0] || &c.tile.t.Data[0] != &tile[0] {
				t.Fatalf("%v: Forward replaced the guarded buffers", cc)
			}
			want := refConv2D{&Conv2D{InC: cc.inC, OutC: cc.outC, K: cc.k, Pad: cc.pad, W: c.W, B: c.B}}.Forward(x, false)
			if i := firstBitDiff(y.Data, want.Data); i >= 0 {
				t.Fatalf("%v: y[%d] = %v, reference %v", cc, i, y.Data[i], want.Data[i])
			}
		}
	}
}
