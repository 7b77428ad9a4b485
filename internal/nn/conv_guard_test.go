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
// every buffer an assembly routine addresses flush against a guard page,
// first the page after it and then the page before: for Forward the input
// planes, the packed kernels and the sum tile; for Backward the input planes
// again, the output gradient, W.Grad, dx, and the scratch the two routines
// own (W.Grad in lanes and the gradient quad, which live in Forward's two
// buffers, the kernels packed for dx and dx's tile with its stand-in
// columns). The parity tests would miss an access that lands in mapped heap
// and changes no result; here it kills the process.
func TestConvKernelStaysInBounds(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 path on this CPU")
	}
	for _, atEnd := range []bool{true, false} {
		// scratch hands s a guarded buffer of exactly n values (none for 0).
		scratch := func(s *tscratch, n int) []float64 {
			if n == 0 {
				return nil
			}
			buf := guarded(t, n, atEnd)
			s.t.Data = buf[:0]
			return buf
		}
		kept := func(s *tscratch, buf []float64) bool {
			return buf == nil || unsafe.SliceData(s.t.Data) == unsafe.SliceData(buf)
		}
		for i, cc := range vectorTileCases() {
			rng := vec.NewRNG(uint64(2000 + i))
			c := NewConv2D(cc.inC, cc.outC, cc.k, cc.pad, rng)
			fillSigned(c.W.Data, rng)
			fillSigned(c.B.Data, rng)
			c.W.Grad = guarded(t, len(c.W.Data), atEnd)
			fillSigned(c.W.Grad, rng)
			x := &Tensor{Shape: []int{cc.n, cc.inC, cc.h, cc.w}, Data: guarded(t, cc.n*cc.inC*cc.h*cc.w, atEnd)}
			fillSigned(x.Data, rng)
			if cc.edges {
				plantEdges(x.Data, cc.h, cc.w)
			}
			oh, ow := c.OutSize(cc.h), c.OutSize(cc.w)
			own(&c.convState)
			pk := scratch(&c.pk, cc.outC/4*cc.inC*100)
			tile := scratch(&c.tile, oh*ow*4)
			kin := scratch(&c.kin, cc.outC*(cc.inC/4)*100)
			dxt := scratch(&c.dxt, cc.h*(ow+4)*4)
			dxBuf := scratch(&c.dx, len(x.Data))
			want := refConv2D{twinConv(c)}

			y, yRef := c.Forward(x, false), want.Forward(x, false)
			if i := firstBitDiff(y.Data, yRef.Data); i >= 0 {
				t.Fatalf("%v: y[%d] = %v, reference %v", cc, i, y.Data[i], yRef.Data[i])
			}
			grad := &Tensor{Shape: y.Shape, Data: guarded(t, len(y.Data), atEnd)}
			cc.fillGrad(grad.Data, rng)
			dx, dxRef := c.Backward(grad), want.Backward(grad)
			if i := firstBitDiff(dx.Data, dxRef.Data); i >= 0 {
				t.Fatalf("%v: dx[%d] = %v, reference %v", cc, i, dx.Data[i], dxRef.Data[i])
			}
			if i := firstBitDiff(c.W.Grad, want.W.Grad); i >= 0 {
				t.Fatalf("%v: W.Grad[%d] = %v, reference %v", cc, i, c.W.Grad[i], want.W.Grad[i])
			}
			if !kept(&c.pk, pk) || !kept(&c.tile, tile) || !kept(&c.kin, kin) || !kept(&c.dxt, dxt) || !kept(&c.dx, dxBuf) {
				t.Fatalf("%v: the layer replaced a guarded buffer", cc)
			}
		}
	}
}
