package codec

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// FloatCodec encodes a vector of float32 values for the wire. Models are
// trained in float64 but transmitted as float32, matching the paper's setup
// (PyTorch float32 tensors compressed with fpzip): a Share narrows its values
// when it builds its vector, and every codec here carries those float32 bits
// unchanged, so decoding returns exactly what was encoded. Both directions
// write into caller-owned buffers, so a warm caller encodes and decodes
// without allocating.
type FloatCodec interface {
	// Name identifies the codec in messages; a payload carries its wire ID.
	Name() string
	// AppendEncode appends the encoding of values to dst (which may be nil
	// or a recycled buffer sliced to length zero) and returns the extended
	// buffer.
	AppendEncode(dst []byte, values []float32) ([]byte, error)
	// DecodeInto decodes exactly len(out) values from buf into out,
	// overwriting all of it.
	DecodeInto(buf []byte, out []float32) error
}

// Raw32 stores values as little-endian IEEE-754 float32.
type Raw32 struct{}

var _ FloatCodec = Raw32{}

// Name implements FloatCodec.
func (Raw32) Name() string { return "raw32" }

// AppendEncode implements FloatCodec.
func (Raw32) AppendEncode(dst []byte, values []float32) ([]byte, error) {
	var tmp [4]byte
	for _, v := range values {
		binary.LittleEndian.PutUint32(tmp[:], math.Float32bits(v))
		dst = append(dst, tmp[:]...)
	}
	return dst, nil
}

// DecodeInto implements FloatCodec.
func (Raw32) DecodeInto(buf []byte, out []float32) error {
	if len(buf) < 4*len(out) {
		return fmt.Errorf("codec: raw32 needs %d bytes, have %d: %w", 4*len(out), len(buf), ErrCorrupt)
	}
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

// PlaneFlate32 transposes float32 values into four byte planes (all sign/
// exponent bytes together, then successively lower mantissa bytes) and writes
// them as one DEFLATE stream. Like fpzip it exploits the strong redundancy of
// neural-network weight exponents; unlike fpzip it is built entirely from the
// Go standard library. Lossless: every float32 bit pattern, NaN payloads
// included, decodes to itself.
//
// The stream is Huffman-only: plane 0 (sign and the high exponent bits) is
// written and flushed, so its blocks end at the plane boundary with their own
// Huffman tables, then planes 1-3 follow and the stream is closed. There is
// no LZ pass because there is nothing for it to find: on model weights plane 0
// deflates to about 0.45 of its size from its byte histogram alone and the
// mantissa planes do not shrink at all. compress/flate stores any block that
// Huffman coding would not shrink by a sixteenth, so mantissa planes cost five
// bytes of framing per 64 KB, while a plane that does repeat (zero biases, a
// constant vector) still falls to one bit per byte. Any DEFLATE reader
// inflates the stream to the 4n plane bytes; DecodeInto also reads the
// single-stream LZ payloads older encoders wrote.
type PlaneFlate32 struct{}

var _ FloatCodec = PlaneFlate32{}

// Name implements FloatCodec.
func (PlaneFlate32) Name() string { return "flate32" }

// maxStored: the longest stored block; the Huffman-only writer cuts its input there.
const maxStored = 65535

// AppendEncode implements FloatCodec with pooled plane scratch and a
// pooled DEFLATE writer (flate.NewWriter allocates its window per call). The
// writer codes plane 0. It would then build a Huffman code for every 64 KB of
// mantissa bytes and store them all the same: chunks storesForSure vouches for
// are appended as stored blocks directly, and the writer takes over again from
// the first it cannot vouch for. The bytes are the writer's own either way.
func (PlaneFlate32) AppendEncode(dst []byte, values []float32) ([]byte, error) {
	n := len(values)
	pp := getByteBuf(4 * n)
	defer putByteBuf(pp)
	planes := *pp
	for i, v := range values {
		b := math.Float32bits(v)
		planes[i] = byte(b >> 24)
		planes[n+i] = byte(b >> 16)
		planes[2*n+i] = byte(b >> 8)
		planes[3*n+i] = byte(b)
	}
	sw := sliceWriter{b: dst}
	fw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(fw)
	fw.Reset(&sw)
	_, err := fw.Write(planes[:n])
	if err == nil {
		// plane 0's blocks end here, on a byte boundary, and sw has them all
		err = fw.Flush()
	}
	rest := planes[n:]
	for err == nil && len(rest) > 0 {
		chunk := rest[:min(len(rest), maxStored)]
		if !storesForSure(chunk) {
			break
		}
		sw.b = append(sw.b, 0, byte(len(chunk)), byte(len(chunk)>>8), ^byte(len(chunk)), ^byte(len(chunk)>>8))
		sw.b = append(sw.b, chunk...)
		rest = rest[len(chunk):]
	}
	if err == nil && len(rest) == 0 {
		sw.b = append(sw.b, 1, 0, 0, 0xff, 0xff) // what Close writes: an empty final stored block
	} else if err == nil {
		if _, err = fw.Write(rest); err == nil {
			err = fw.Close()
		}
	}
	if err != nil {
		return dst, fmt.Errorf("codec: flate encode: %w", err)
	}
	return sw.b, nil
}

// storesForSure reports whether compress/flate's Huffman-only writer is
// certain to store chunk (at most maxStored bytes). It stores iff (len+5)*8 <
// size + size>>4, size being the bits of the dynamic block it built. No prefix
// code beats the entropy of the byte histogram, which is at least the
// collision entropy -log2(sum p^2) — one logarithm instead of 256 — so that,
// less 64 bits against rounding, stands in for size. Mantissa bytes pass from
// about 1 KB up; zeros, a constant vector and tiny chunks go through the writer.
func storesForSure(chunk []byte) bool {
	var hist [256]uint32
	for _, b := range chunk {
		hist[b]++
	}
	var squares uint64
	for _, c := range hist {
		squares += uint64(c) * uint64(c)
	}
	n := float64(len(chunk))
	size := int(n*(2*math.Log2(n)-math.Log2(float64(squares)))) - 64
	return (len(chunk)+5)*8 < size+size>>4
}

// DecodeInto implements FloatCodec. What inflateLiterals declines — the
// LZ payloads of older encoders, corrupt input — goes through a pooled
// compress/flate reader from the start, which decides.
func (PlaneFlate32) DecodeInto(buf []byte, out []float32) error {
	count := len(out)
	pp := getByteBuf(4 * count)
	defer putByteBuf(pp)
	planes := *pp
	if !inflateLiterals(buf, planes) {
		fr := getFlateReader(buf)
		_, err := io.ReadFull(fr.fr, planes)
		putFlateReader(fr)
		if err != nil {
			return fmt.Errorf("codec: flate read: %v: %w", err, ErrCorrupt)
		}
	}
	n := count
	for i := range out {
		b := uint32(planes[i])<<24 | uint32(planes[n+i])<<16 |
			uint32(planes[2*n+i])<<8 | uint32(planes[3*n+i])
		out[i] = math.Float32frombits(b)
	}
	return nil
}
