package codec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vec"
)

// IndexMode says how a sparse vector's support is described on the wire.
type IndexMode uint8

// Index modes.
const (
	// IndexDense means all of [0, Dim) is present: no index metadata at all
	// (full-sharing).
	IndexDense IndexMode = iota
	// IndexGamma carries explicit sorted indices, delta + Elias gamma encoded
	// (JWINS, TopK, CHOCO).
	IndexGamma
	// IndexSeed carries only a PRNG seed and a count; the receiver
	// regenerates the index set (random-sampling baseline). This is the
	// "just share the seed" optimization described in the paper.
	IndexSeed
)

// SparseVector is a subset of coefficients of a Dim-dimensional vector, with
// the float32 values the wire carries: a sender narrows once when it builds
// the vector, and a decoded vector holds exactly the values that were sent.
// Exactly one support description is used depending on the index mode:
// Indices for explicit supports, or (Seed, len(Values)) for seeded supports.
type SparseVector struct {
	Dim     int
	Indices []int // strictly increasing; nil for dense or seeded vectors
	Seed    uint64
	Values  []float32
}

// SeededIndices regenerates the index set for a seeded sparse vector. Both
// sender and receiver call this, so it must stay deterministic across
// releases: it uses the repository's own RNG, not math/rand.
func SeededIndices(seed uint64, dim, count int) []int {
	r := vec.NewRNG(seed)
	return r.SampleWithoutReplacement(dim, count)
}

// floatCodecID maps codecs to wire IDs. IDs 2 and 3 belonged to two retired
// codecs (a Gorilla-style XOR compressor and a QSGD quantizer); they are never
// reused, so a payload that carries one is rejected as corrupt and the next
// codec takes 4.
func floatCodecID(c FloatCodec) (uint8, error) {
	switch c.(type) {
	case Raw32:
		return 0, nil
	case PlaneFlate32:
		return 1, nil
	default:
		return 0, fmt.Errorf("codec: unregistered float codec %q", c.Name())
	}
}

func floatCodecFromID(id uint8) (FloatCodec, error) {
	switch id {
	case 0:
		return Raw32{}, nil
	case 1:
		return PlaneFlate32{}, nil
	case 2, 3:
		return nil, fmt.Errorf("codec: retired float codec id %d: %w", id, ErrCorrupt)
	default:
		return nil, fmt.Errorf("codec: unknown float codec id %d: %w", id, ErrCorrupt)
	}
}

// ByteBreakdown splits an encoded payload into the bytes spent on model
// values versus sparsification metadata (header + index description). The
// paper's Figures 4, 9 and 10 plot exactly this split.
type ByteBreakdown struct {
	Model int
	Meta  int
}

// EncodeScratch holds the reusable intermediate buffers of EncodeSparseInto.
// The zero value is ready; each owner (one per running call, shared by the
// fleet) amortizes the value and index encoding scratch across every round of
// a run, whatever the size of the last payload staged in it. The payload
// itself is not staged here: payloads outlive the call (inboxes, rejoin
// caches, in-flight messages), so it goes into the buffer the caller passes
// to EncodeSparseInto, which only the payload's owner may recycle.
type EncodeScratch struct {
	vals []byte
	idx  []byte
}

// EncodeSparse serializes sv using the given index mode and float codec.
//
// Wire format (little endian):
//
//	u8  indexMode | u8 floatCodecID | u32 dim | u32 count
//	[seed u64]                      (IndexSeed only)
//	[u32 indexByteLen | bytes]      (IndexGamma only)
//	u32 valueByteLen | bytes
func EncodeSparse(sv SparseVector, mode IndexMode, fc FloatCodec) ([]byte, ByteBreakdown, error) {
	var s EncodeScratch
	return EncodeSparseWith(&s, sv, mode, fc)
}

// EncodeSparseWith is EncodeSparse with caller-owned scratch: the value and
// index encodings are staged in s and copied once into a freshly allocated
// exact-size payload, so a warm scratch leaves the payload allocation as the
// call's only one. It is EncodeSparseInto with no buffer to reuse.
func EncodeSparseWith(s *EncodeScratch, sv SparseVector, mode IndexMode, fc FloatCodec) ([]byte, ByteBreakdown, error) {
	return EncodeSparseInto(nil, s, sv, mode, fc)
}

// EncodeSparseInto is EncodeSparseWith writing the payload into dst's backing
// array when the payload fits in its capacity, so a warm scratch and a
// handed-back payload buffer leave the call allocation-free. A nil dst
// allocates an exact-size payload; a non-nil dst that is too small is
// replaced by a new array with a quarter of headroom, so a buffer reused
// round after round settles at its owner's largest payload however the size
// varies. dst's old contents are overwritten: the caller must own it, with
// nothing else still reading it. The returned slice has the payload's exact
// length.
func EncodeSparseInto(dst []byte, s *EncodeScratch, sv SparseVector, mode IndexMode, fc FloatCodec) ([]byte, ByteBreakdown, error) {
	var bd ByteBreakdown
	cid, err := floatCodecID(fc)
	if err != nil {
		return nil, bd, err
	}
	count := len(sv.Values)
	switch mode {
	case IndexDense:
		if count != sv.Dim {
			return nil, bd, fmt.Errorf("codec: dense payload has %d values for dim %d", count, sv.Dim)
		}
	case IndexGamma:
		if len(sv.Indices) != count {
			return nil, bd, fmt.Errorf("codec: %d indices for %d values", len(sv.Indices), count)
		}
	case IndexSeed:
		// Support is implied by (seed, count).
	default:
		return nil, bd, fmt.Errorf("codec: unknown index mode %d", mode)
	}

	s.vals, err = fc.AppendEncode(s.vals[:0], sv.Values)
	if err != nil {
		return nil, bd, fmt.Errorf("codec: value encoding: %w", err)
	}
	valueBytes := s.vals
	var idxBytes []byte
	if mode == IndexGamma {
		s.idx, err = AppendIndicesGamma(s.idx[:0], sv.Indices)
		if err != nil {
			return nil, bd, err
		}
		idxBytes = s.idx
	}

	size := 10 + 4 + len(valueBytes)
	switch mode {
	case IndexGamma:
		size += 4 + len(idxBytes)
	case IndexSeed:
		size += 8
	}
	var out []byte
	switch {
	case cap(dst) >= size:
		out = dst[:0]
	case dst == nil:
		out = make([]byte, 0, size)
	default:
		out = make([]byte, 0, size+size/4)
	}
	out = append(out, byte(mode), cid)
	out = appendU32(out, uint32(sv.Dim))
	out = appendU32(out, uint32(count))
	switch mode {
	case IndexGamma:
		out = appendU32(out, uint32(len(idxBytes)))
		out = append(out, idxBytes...)
	case IndexSeed:
		var seedBuf [8]byte
		binary.LittleEndian.PutUint64(seedBuf[:], sv.Seed)
		out = append(out, seedBuf[:]...)
	}
	metaLen := len(out) + 4 // header + index part + value-length field
	out = appendU32(out, uint32(len(valueBytes)))
	out = append(out, valueBytes...)
	bd = ByteBreakdown{Model: len(valueBytes), Meta: metaLen}
	return out, bd, nil
}

// DecodeSparseInto parses a payload produced by EncodeSparse into sv,
// reusing its Indices and Values capacity, so a node can decode every
// neighbor payload of a round into warm scratch. For IndexSeed payloads the
// index set is regenerated, so sv.Indices is always populated except for
// dense payloads, where it is nil. On error sv is left in an unspecified
// state.
func DecodeSparseInto(sv *SparseVector, buf []byte) error {
	if len(buf) < 10 {
		return fmt.Errorf("codec: payload too short: %w", ErrCorrupt)
	}
	mode := IndexMode(buf[0])
	fc, err := floatCodecFromID(buf[1])
	if err != nil {
		return err
	}
	sv.Dim = int(binary.LittleEndian.Uint32(buf[2:]))
	count := int(binary.LittleEndian.Uint32(buf[6:]))
	// count can never legitimately exceed the vector dimension; reject here,
	// before any count-sized work (seeded index regeneration, value buffers),
	// so a corrupt header yields ErrCorrupt instead of a huge allocation.
	if count > sv.Dim {
		return fmt.Errorf("codec: count %d exceeds dim %d: %w", count, sv.Dim, ErrCorrupt)
	}
	sv.Seed = 0
	sv.Indices = sv.Indices[:0]
	pos := 10
	switch mode {
	case IndexDense:
		if count != sv.Dim {
			return fmt.Errorf("codec: dense count %d != dim %d: %w", count, sv.Dim, ErrCorrupt)
		}
		sv.Indices = nil
	case IndexGamma:
		if len(buf) < pos+4 {
			return fmt.Errorf("codec: truncated index length: %w", ErrCorrupt)
		}
		idxLen := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		if len(buf) < pos+idxLen {
			return fmt.Errorf("codec: truncated index bytes: %w", ErrCorrupt)
		}
		sv.Indices, err = AppendDecodeIndicesGamma(sv.Indices, buf[pos:pos+idxLen], count)
		if err != nil {
			return err
		}
		// Decoded indices are strictly increasing, so the last one bounds them
		// all; one out of range would panic in the receiver's scatter.
		if count > 0 && sv.Indices[count-1] >= sv.Dim {
			return fmt.Errorf("codec: index %d exceeds dim %d: %w", sv.Indices[count-1], sv.Dim, ErrCorrupt)
		}
		pos += idxLen
	case IndexSeed:
		if len(buf) < pos+8 {
			return fmt.Errorf("codec: truncated seed: %w", ErrCorrupt)
		}
		sv.Seed = binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
	default:
		return fmt.Errorf("codec: unknown index mode %d: %w", mode, ErrCorrupt)
	}
	if len(buf) < pos+4 {
		return fmt.Errorf("codec: truncated value length: %w", ErrCorrupt)
	}
	valLen := int(binary.LittleEndian.Uint32(buf[pos:]))
	pos += 4
	if len(buf) < pos+valLen {
		return fmt.Errorf("codec: truncated values: %w", ErrCorrupt)
	}
	// Each codec has a hard lower bound on encoded bytes per value; a value
	// section too small for the claimed count is corrupt, and rejecting it
	// here keeps the value-buffer allocation behind real evidence.
	if need := minValueBytes(fc, count); valLen < need {
		return fmt.Errorf("codec: %d value bytes cannot hold %d %s values: %w", valLen, count, fc.Name(), ErrCorrupt)
	}
	// Seeded index regeneration is count-sized work, so it waits until the
	// value section has passed every structural check: a corrupt seeded header
	// must fail cheaply, not after rebuilding a huge index set.
	if mode == IndexSeed {
		sv.Indices = SeededIndices(sv.Seed, sv.Dim, count)
	}
	if cap(sv.Values) < count {
		sv.Values = make([]float32, count)
	} else {
		sv.Values = sv.Values[:count]
	}
	return fc.DecodeInto(buf[pos:pos+valLen], sv.Values)
}

// minValueBytes returns a codec's hard minimum encoded size for count values.
func minValueBytes(fc FloatCodec, count int) int {
	if _, ok := fc.(Raw32); ok {
		return 4 * count
	}
	// PlaneFlate32: DEFLATE expands 4*count plane bytes by at most ~1032:1
	// (258-byte matches, 1-bit minimum codes).
	return 4 * count / 1032
}

func appendU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}
