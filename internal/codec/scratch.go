// scratch.go holds the package's reusable-buffer machinery: pooled DEFLATE
// compressor state and pooled byte-plane scratch. Per-payload allocations in the encode/decode hot path
// (every Share and Aggregate of every node, every simulated round) otherwise
// dominate the engines' allocation profile.
package codec

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// sliceWriter is an io.Writer appending to a byte slice, so pooled flate
// writers can emit straight into caller-owned buffers.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// byteBufPool recycles the byte-plane scratch used by PlaneFlate32 (4 bytes
// per value, so up to a few MB for large models — well worth pooling).
var byteBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getByteBuf returns a pooled byte slice of length n.
func getByteBuf(n int) *[]byte {
	p := byteBufPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putByteBuf(p *[]byte) { byteBufPool.Put(p) }

// flateWriterPool recycles PlaneFlate32's Huffman-only DEFLATE writers:
// flate.NewWriter allocates the 64 KB block window and the coder per call.
var flateWriterPool = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(io.Discard, flate.HuffmanOnly)
	if err != nil {
		panic(err) // HuffmanOnly is a valid level; unreachable
	}
	return fw
}}

// flateReader pairs a reusable flate inflater with its reusable source.
type flateReader struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var flateReaderPool = sync.Pool{New: func() any {
	r := &flateReader{}
	r.fr = flate.NewReader(&r.src)
	return r
}}

// getFlateReader returns a pooled inflater reset to read buf.
func getFlateReader(buf []byte) *flateReader {
	r := flateReaderPool.Get().(*flateReader)
	r.src.Reset(buf)
	// flate.NewReader's concrete type always implements Resetter.
	r.fr.(flate.Resetter).Reset(&r.src, nil)
	return r
}

func putFlateReader(r *flateReader) { flateReaderPool.Put(r) }
