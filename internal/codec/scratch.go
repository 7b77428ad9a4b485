// scratch.go holds the package's reusable-buffer machinery: optional
// append/into codec interfaces, pooled DEFLATE compressor state, and pooled
// byte-plane scratch. Per-payload allocations in the encode/decode hot path
// (every Share and Aggregate of every node, every simulated round) otherwise
// dominate the engines' allocation profile.
package codec

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// FloatAppender is implemented by codecs that can append their encoding to a
// caller-owned buffer instead of allocating a fresh one.
type FloatAppender interface {
	// AppendEncode appends the encoding of values to dst (which may be nil or
	// a recycled buffer sliced to length zero) and returns the extended
	// buffer.
	AppendEncode(dst []byte, values []float64) ([]byte, error)
}

// FloatDecoderInto is implemented by codecs that can decode into a
// caller-owned value slice.
type FloatDecoderInto interface {
	// DecodeInto decodes exactly len(out) values from buf into out.
	DecodeInto(buf []byte, out []float64) error
}

// appendEncode routes through FloatAppender when available, falling back to
// a plain Encode plus append.
func appendEncode(fc FloatCodec, dst []byte, values []float64) ([]byte, error) {
	if a, ok := fc.(FloatAppender); ok {
		return a.AppendEncode(dst, values)
	}
	buf, err := fc.Encode(values)
	if err != nil {
		return dst, err
	}
	return append(dst, buf...), nil
}

// decodeInto routes through FloatDecoderInto when available, falling back to
// Decode plus copy.
func decodeInto(fc FloatCodec, buf []byte, out []float64) error {
	if d, ok := fc.(FloatDecoderInto); ok {
		return d.DecodeInto(buf, out)
	}
	vals, err := fc.Decode(buf, len(out))
	if err != nil {
		return err
	}
	copy(out, vals)
	return nil
}

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
