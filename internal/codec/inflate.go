package codec

import (
	"encoding/binary"
	"math/bits"
)

// inflate.go reads the DEFLATE streams PlaneFlate32.AppendEncode writes, and
// nothing else: stored blocks, copied straight out of the payload, and dynamic
// blocks whose alphabet is the 256 literals and end-of-block, decoded from a
// 64-bit bit buffer one table lookup per one or two literals. Whatever
// inflateLiterals is not certain compress/flate would inflate to the same
// bytes it declines, and the caller runs compress/flate from the start; so it
// is stricter than DEFLATE, and also declines a symbol with fewer than
// maxCodeLen real bits left, which no stream ending in our framing bytes has.

const (
	lutBits    = 10 // lookup-table width; the rare longer code is walked bit by bit
	maxCodeLen = 15
	endOfBlock = 256
)

// codeOrder: a dynamic block header lists the code-length code's lengths so.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// huffLUT is one complete canonical Huffman code over at most 257 symbols.
type huffLUT struct {
	lut   [1 << lutBits]uint32   // by the next bits of the stream: symbol<<4 | length; 0: the code is longer than the table
	count [maxCodeLen + 1]uint16 // codes per length
	syms  [endOfBlock + 1]uint16 // symbols in canonical order: by length, then by value
}

// build makes h the canonical code with the given lengths, its table indexed
// by width bits, and reports whether the code is complete (so not empty, not
// a single code either).
func (h *huffLUT) build(lens []uint8, width uint) bool {
	h.count = [maxCodeLen + 1]uint16{}
	for _, l := range lens {
		h.count[l]++ // count[0], the unused symbols, is never read
	}
	var next, slot [maxCodeLen + 2]int // per length: next code, next index into syms
	left := 1                          // codes of the current length not yet assigned
	for l := 1; l <= maxCodeLen; l++ {
		if left = left<<1 - int(h.count[l]); left < 0 {
			return false
		}
		next[l+1] = (next[l] + int(h.count[l])) << 1
		slot[l+1] = slot[l] + int(h.count[l])
	}
	if left != 0 {
		return false
	}
	clear(h.lut[:1<<width])
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		h.syms[slot[l]] = uint16(sym)
		slot[l]++
		code := next[l]
		next[l]++
		if uint(l) > width {
			continue
		}
		// Codes arrive most significant bit first: index by the reversed code.
		e := uint32(sym)<<4 | uint32(l)
		for j := int(bits.Reverse16(uint16(code)) >> (16 - l)); j < 1<<width; j += 1 << l {
			h.lut[j] = e
		}
	}
	// A full-width table pairs up: an entry whose literal leaves room in the
	// index for a second whole literal code decodes both — the lengths added
	// up, bit 15 set, the second literal from bit 16.
	if width < lutBits {
		return true
	}
	for j := len(h.lut) - 1; j >= 0; j-- { // downwards: j>>l is still a single entry
		e := h.lut[j]
		l := e & 15
		if e2 := h.lut[j>>l]; l != 0 && e2&15 != 0 && l+e2&15 <= lutBits && e>>4 < endOfBlock && e2>>4 < endOfBlock {
			h.lut[j] = (e + e2&15) | 1<<15 | e2>>4<<16
		}
	}
	return true
}

// long decodes the code at the bottom of bb without the table: the canonical
// walk, one bit per length. A complete code resolves within maxCodeLen bits.
func (h *huffLUT) long(bb uint64) uint16 {
	code, first, index := 0, 0, 0
	for l := uint(1); l <= maxCodeLen; l++ {
		code = code<<1 | int(bb>>(l-1)&1)
		c := int(h.count[l])
		if code-c < first {
			return h.syms[index+code-first]<<4 | uint16(l)
		}
		index += c
		first = (first + c) << 1
	}
	return 0
}

// bitSrc reads src least significant bit first.
type bitSrc struct {
	src []byte
	pos int    // next byte of src to load
	bb  uint64 // loaded bits, the next one lowest; zero above nb
	nb  uint
}

// load tops the buffer up and reports whether it holds n bits (n <= 56).
func (r *bitSrc) load(n uint) bool {
	for ; r.nb <= 56 && r.pos < len(r.src); r.pos++ {
		r.bb |= uint64(r.src[r.pos]) << r.nb
		r.nb += 8
	}
	return r.nb >= n
}

// take consumes n loaded bits.
func (r *bitSrc) take(n uint) uint {
	v := uint(r.bb) & (1<<n - 1)
	r.bb >>= n
	r.nb -= n
	return v
}

// inflateLiterals inflates src into dst and reports whether it did. It stops
// when dst is full, as io.ReadFull over a flate reader does, whatever follows.
// False means "not mine", not "corrupt" — a fixed-Huffman block, a length or
// distance code, a code that is not complete or has no end-of-block, a
// LEN/NLEN mismatch, an early end — and may leave dst written in part.
func inflateLiterals(src, dst []byte) bool {
	r := bitSrc{src: src}
	var h huffLUT
	for di := 0; di < len(dst); {
		if !r.load(3) {
			return false
		}
		final := r.take(1) == 1
		switch r.take(2) {
		case 0: // stored: the rest of the current byte is padding, then LEN, NLEN, bytes
			p := r.pos - int(r.nb>>3)
			if p+4 > len(src) || src[p] != ^src[p+2] || src[p+1] != ^src[p+3] {
				return false
			}
			end := p + 4 + min(int(binary.LittleEndian.Uint16(src[p:])), len(dst)-di)
			if end > len(src) {
				return false
			}
			di += copy(dst[di:], src[p+4:end])
			r = bitSrc{src: src, pos: end}
		case 2:
			if !r.readCode(&h) {
				return false
			}
			var ok bool
			if di, ok = r.literals(&h, dst, di); !ok {
				return false
			}
		default:
			return false
		}
		if final && di < len(dst) {
			return false
		}
	}
	return true
}

// readCode reads a dynamic block's header into h.
func (r *bitSrc) readCode(h *huffLUT) bool {
	// HLIT = HDIST = 0: no symbol is a length, the one distance code HuffmanOnly declares.
	if !r.load(14) || r.take(10) != 0 {
		return false
	}
	var clens [len(codeOrder)]uint8
	for i, n := 0, int(r.take(4))+4; i < n; i++ {
		if !r.load(3) {
			return false
		}
		clens[codeOrder[i]] = uint8(r.take(3))
	}
	if !h.build(clens[:], 7) {
		return false
	}
	var lens [endOfBlock + 2]uint8 // the literals, end-of-block, the distance code
	for i := 0; i < len(lens); {
		if !r.load(14) { // a code of up to 7 bits and up to 7 extra bits
			return false
		}
		e := h.lut[r.bb&127]
		r.take(uint(e & 15))
		rep, val := 1, uint8(e>>4)
		switch e >> 4 {
		case 16:
			if i == 0 {
				return false
			}
			rep, val = 3+int(r.take(2)), lens[i-1]
		case 17:
			rep, val = 3+int(r.take(3)), 0
		case 18:
			rep, val = 11+int(r.take(7)), 0
		}
		if i+rep > len(lens) {
			return false
		}
		for ; rep > 0; rep-- {
			lens[i] = val
			i++
		}
	}
	return lens[endOfBlock] != 0 && lens[endOfBlock+1] <= 1 && h.build(lens[:endOfBlock+1], lutBits)
}

// literals decodes symbols of h into dst[di:] until end-of-block or until dst
// is full, and returns the new di.
func (r *bitSrc) literals(h *huffLUT, dst []byte, di int) (int, bool) {
	src, pos, bb, nb := r.src, r.pos, r.bb, r.nb
	for di < len(dst) {
		if pos+8 <= len(src) {
			// Eight bytes at once; those that did not fit whole load again next time.
			bb |= binary.LittleEndian.Uint64(src[pos:]) << nb
			pos += int(63-nb) >> 3
			nb |= 56
		} else { // the last bytes, one at a time
			r.pos, r.bb, r.nb = pos, bb&(1<<nb-1), nb
			if !r.load(maxCodeLen) {
				return di, false
			}
			pos, bb, nb = r.pos, r.bb, r.nb
		}
		for nb >= maxCodeLen && di < len(dst) {
			e := h.lut[bb&(1<<lutBits-1)]
			if e == 0 || di+1 == len(dst) { // no entry, or no room for a pair
				e = uint32(h.long(bb))
			}
			bb >>= e & 15
			nb -= uint(e & 15)
			if e&(endOfBlock<<4) != 0 {
				r.pos, r.bb, r.nb = pos, bb&(1<<nb-1), nb
				return di, true
			}
			dst[di] = byte(e >> 4)
			if e&(1<<15) != 0 {
				dst[di+1] = byte(e >> 16)
				di++
			}
			di++
		}
	}
	return di, true
}
