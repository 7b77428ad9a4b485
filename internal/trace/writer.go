// writer.go serializes traces in the binary layout: "JWTR" magic, a version
// byte, the JSON header length-prefixed, then varint-packed events
// terminated by a zero kind byte and the event count. The count makes
// truncation detectable.
package trace

import (
	"encoding/binary"
	"io"
	"math"
)

// binaryMagic opens every trace.
var binaryMagic = [4]byte{'J', 'W', 'T', 'R'}

// BinaryExt is the conventional file extension of a trace.
const BinaryExt = ".jtb"

// Write emits t. The header is validated against the events first, so a
// malformed recording never reaches disk; the bytes are then exactly those
// of a StreamRecorder fed the same events, because that is what writes them.
func Write(w io.Writer, t *Trace) error {
	if err := Validate(t.Header, t.Events); err != nil {
		return err
	}
	s, err := NewStreamRecorder(w, t.Header)
	if err != nil {
		return err
	}
	for i := range t.Events {
		s.Record(t.Events[i])
	}
	return s.Close()
}

// maxBinaryEventLen bounds one encoded event: kind, flags, the timestamp,
// eight varints and the aggregate record's mean lag.
const maxBinaryEventLen = 2 + 8 + 8*binary.MaxVarintLen64 + 8

// appendBinaryEvent appends ev's binary encoding to dst. Encoding into a
// caller-owned buffer (one Write per event) is what keeps
// StreamRecorder.Record allocation-free.
func appendBinaryEvent(dst []byte, ev *Event) []byte {
	var flags byte
	if ev.Dropped {
		flags |= 1
	}
	dst = append(dst, byte(ev.Kind), flags)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.Time))
	// Peer is shifted by one so -1 ("none") packs as a single zero byte.
	for _, v := range [...]uint64{
		uint64(ev.Node), uint64(ev.Peer + 1), uint64(ev.Iter),
		uint64(ev.Bytes), uint64(ev.ModelBytes), uint64(ev.MetaBytes),
		uint64(ev.LagMax), uint64(ev.LagN),
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	if ev.Kind == KindAggregate {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.LagMean))
	}
	return dst
}

// appendBinaryEnd appends the end marker: kind 0 followed by the event count.
func appendBinaryEnd(dst []byte, events int) []byte {
	return binary.AppendUvarint(append(dst, 0), uint64(events))
}
