// writer.go serializes traces. JSONL: a header object line, one event object
// per line, and a {"end":true,"events":N} footer. Binary: "JWTR" magic, a
// version byte, the JSON header length-prefixed, then varint-packed events
// terminated by a zero kind byte and the event count. The footer/count makes
// truncation detectable in both encodings.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// binaryMagic opens every binary trace; JSONL traces open with '{'.
var binaryMagic = [4]byte{'J', 'W', 'T', 'R'}

// footer terminates a JSONL trace.
type footer struct {
	End    bool `json:"end"`
	Events int  `json:"events"`
}

// BinaryExt is the conventional file extension for the binary encoding;
// WriteFile and ReadFile key on it.
const BinaryExt = ".jtb"

// Write emits t as JSONL. The header is validated against the events first,
// so a malformed recording never reaches disk.
func Write(w io.Writer, t *Trace) error {
	if err := Validate(t.Header, t.Events); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline JSONL needs
	if err := enc.Encode(t.Header); err != nil {
		return err
	}
	for i := range t.Events {
		if err := enc.Encode(&t.Events[i]); err != nil {
			return err
		}
	}
	if err := enc.Encode(footer{End: true, Events: len(t.Events)}); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBinary emits t in the compact binary encoding.
func WriteBinary(w io.Writer, t *Trace) error {
	if err := Validate(t.Header, t.Events); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, _, err := writeBinaryHeader(bw, t.Header); err != nil {
		return err
	}
	buf := make([]byte, 0, maxBinaryEventLen)
	for i := range t.Events {
		buf = appendBinaryEvent(buf[:0], &t.Events[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if _, err := bw.Write(appendBinaryEnd(buf[:0], len(t.Events))); err != nil {
		return err
	}
	return bw.Flush()
}

// writeBinaryHeader emits the binary preamble (magic, version byte, length-
// prefixed JSON header) and returns the byte offset and length of the JSON
// payload within the stream, which StreamRecorder uses for its padded header
// rewrite on early-stopped runs.
func writeBinaryHeader(bw *bufio.Writer, h Header) (jsonOff, jsonLen int64, err error) {
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return 0, 0, err
	}
	if err := bw.WriteByte(FormatVersion); err != nil {
		return 0, 0, err
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return 0, 0, err
	}
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(hdr)))
	if _, err := bw.Write(scratch[:n]); err != nil {
		return 0, 0, err
	}
	if _, err := bw.Write(hdr); err != nil {
		return 0, 0, err
	}
	return int64(len(binaryMagic) + 1 + n), int64(len(hdr)), nil
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

// WriteFile writes t to path, choosing the encoding by extension: BinaryExt
// selects binary, everything else JSONL.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, BinaryExt) {
		err = WriteBinary(f, t)
	} else {
		err = Write(f, t)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return nil
}
