// Package codec implements the wire-level encoders used by the decentralized
// learning algorithms: bit-level I/O, Elias gamma universal codes for
// sparsification metadata (parameter indices), seeded index descriptors for
// random sampling, and floating-point value codecs (a raw float32 format and
// a byte-plane+flate compressor standing in for fpzip). All byte counts reported by experiments come from the real
// encoded sizes produced here.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is returned when a decoder runs out of bits or reads an invalid
// code. Wrap it with context via fmt.Errorf("...: %w", ErrCorrupt).
var ErrCorrupt = errors.New("codec: corrupt or truncated stream")

// BitWriter accumulates bits most-significant-first into a byte buffer, a
// 64-bit word at a time. The zero value is ready to use.
type BitWriter struct {
	buf []byte
	acc uint64 // pending bits in its low n; the bits above them are stale
	n   uint   // 0..63
}

// WriteBits appends the n low bits of v, most significant first. n may be
// 0 and is at most 64.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	v &= 1<<n - 1 // all of v at n = 64, where 1<<n is 0
	free := 64 - w.n
	if n < free {
		w.acc, w.n = w.acc<<n|v, w.n+n
		return
	}
	// The word fills: its last free bits are v's top ones. A shift by 64
	// yields 0, so an empty accumulator or a whole word needs no case.
	rest := n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc, w.n = v, rest
}

// Len returns the number of complete bytes written so far (excluding any
// partial final byte).
func (w *BitWriter) Len() int { return w.BitLen() / 8 }

// BitLen returns the total number of bits written.
func (w *BitWriter) BitLen() int { return len(w.buf)*8 + int(w.n) }

// Bytes flushes the pending bits (the last byte zero-padded) and returns the
// encoded buffer. The writer remains usable; further writes continue after
// padding.
func (w *BitWriter) Bytes() []byte {
	for ; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc>>(w.n-8)))
	}
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
	}
	w.acc, w.n = 0, 0
	return w.buf
}

// BitReader consumes bits most-significant-first from a byte slice, peeking
// at 64 of them at a time.
type BitReader struct {
	buf []byte
	off int // bits consumed
}

// peek returns the next 64 bits, left-aligned, and how many of them lie in
// the buffer: 57 to 64 while eight bytes remain, fewer near the end, whose
// missing bits read as zeros.
func (r *BitReader) peek() (uint64, uint) {
	i, sh := r.off>>3, uint(r.off&7)
	if i+8 <= len(r.buf) {
		return binary.BigEndian.Uint64(r.buf[i:]) << sh, 64 - sh
	}
	if i >= len(r.buf) {
		return 0, 0
	}
	var w uint64
	for j, c := range r.buf[i:] {
		w |= uint64(c) << (56 - 8*j)
	}
	return w << sh, uint(len(r.buf)-i)*8 - sh
}

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint, error) {
	i := r.off >> 3
	if i >= len(r.buf) {
		return 0, ErrCorrupt
	}
	b := uint(r.buf[i]>>(7-r.off&7)) & 1
	r.off++
	return b, nil
}

// ReadBits returns the next n bits as the low bits of a uint64. A read past
// the end of the buffer consumes the rest of it and fails.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	switch {
	case n > 64:
		return 0, fmt.Errorf("codec: ReadBits(%d): %w", n, ErrCorrupt)
	case n > 56: // more than one peek is sure to hold
		hi, err := r.ReadBits(n - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.ReadBits(32)
		if err != nil {
			return 0, err
		}
		return hi<<32 | lo, nil
	}
	w, avail := r.peek()
	if n > avail {
		r.off = 8 * len(r.buf)
		return 0, ErrCorrupt
	}
	r.off += int(n)
	return w >> (64 - n), nil // 0 at n = 0, where the shift is 64
}
