// stream.go is the bounded-memory side of the trace subsystem: a
// StreamRecorder that writes the trace incrementally as a run executes (so
// recording a 1024-node schedule never holds O(events) in RAM), and a
// StreamReader that parses traces event by event (so stats and timelines
// over 1024-node traces run on small machines). The whole-trace Write is a
// loop over StreamRecorder and the whole-trace readers are loops over
// StreamReader, so both paths share one byte layout and one set of
// validation rules.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// StreamRecorder writes a trace incrementally. Events pass through a bounded
// bufio buffer straight to the destination; Close writes the footer that
// makes the file a complete trace. A recorder abandoned without Close leaves
// a file the readers report as ErrTruncated — the honest description of an
// interrupted run.
//
// Record performs the same per-event validation as Write; the first
// violation sticks (see Err) and is also returned by Close, so a malformed
// recording cannot end in a valid-looking file.
type StreamRecorder struct {
	wa    io.WriterAt // seekable destination (needed only by SetRounds)
	owned *os.File    // file created by NewStreamRecorderFile; closed by Close
	bw    *bufio.Writer
	h     Header

	jsonOff, jsonLen int64 // position of the header JSON, for SetRounds rewrite
	count            int
	prev             float64
	rounds           int // SetRounds override; -1 = none
	closed           bool
	err              error

	buf []byte // one event's encoding, reused by every Record
}

var (
	_ Sink         = (*StreamRecorder)(nil)
	_ RoundsSetter = (*StreamRecorder)(nil)
)

// NewStreamRecorder starts a streaming recording on w. The header is
// validated and written immediately. SetRounds requires a seekable
// destination — use NewStreamRecorderFile when early-stopped runs must stay
// replayable.
func NewStreamRecorder(w io.Writer, h Header) (*StreamRecorder, error) {
	h.Format = FormatName
	h.Version = FormatVersion
	if err := validateHeader(h); err != nil {
		return nil, err
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	s := &StreamRecorder{
		bw:     bufio.NewWriter(w),
		buf:    make([]byte, 0, maxBinaryEventLen),
		h:      h,
		prev:   math.Inf(-1),
		rounds: -1,
	}
	if wa, ok := w.(io.WriterAt); ok {
		s.wa = wa // seekable: SetRounds can rewrite the header on Close
	}
	// Preamble: magic, version byte, then the header JSON length-prefixed.
	pre := append(s.buf, binaryMagic[:]...)
	pre = binary.AppendUvarint(append(pre, FormatVersion), uint64(len(hdr)))
	s.jsonOff, s.jsonLen = int64(len(pre)), int64(len(hdr))
	if _, err := s.bw.Write(pre); err != nil {
		return nil, err
	}
	if _, err := s.bw.Write(hdr); err != nil {
		return nil, err
	}
	return s, nil
}

// NewStreamRecorderFile creates path and streams to it. The file is owned by
// the recorder: Close finalizes and closes it.
func NewStreamRecorderFile(path string, h Header) (*StreamRecorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s, err := NewStreamRecorder(f, h)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.owned = f
	return s, nil
}

// Record implements Sink. The first invalid event (or write failure) sticks:
// later events are dropped and the error surfaces through Err and Close.
func (s *StreamRecorder) Record(ev Event) {
	if s.err != nil || s.closed {
		return
	}
	if err := validateEvent(s.h, s.count, &ev, s.prev); err != nil {
		s.err = err
		return
	}
	s.buf = appendBinaryEvent(s.buf[:0], &ev)
	if _, s.err = s.bw.Write(s.buf); s.err == nil {
		s.count++
		s.prev = ev.Time
	}
}

// Len returns the number of events recorded so far.
func (s *StreamRecorder) Len() int { return s.count }

// SetRounds implements RoundsSetter: Close rewrites the already-written
// header's round budget in place (padded to its original length, which JSON
// readers tolerate). It requires a seekable destination; on a plain writer
// Close reports the failure instead of leaving a misleading header.
func (s *StreamRecorder) SetRounds(rounds int) { s.rounds = rounds }

// Flush forces buffered events to the destination without finalizing the
// trace (the file stays truncated until Close).
func (s *StreamRecorder) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// Close writes the footer, flushes, applies any SetRounds header rewrite,
// and closes the file when the recorder owns one. It returns the first error
// of the whole recording.
func (s *StreamRecorder) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.err == nil {
		_, s.err = s.bw.Write(appendBinaryEnd(s.buf[:0], s.count))
	}
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.err == nil && s.rounds >= 0 && s.rounds != s.h.Rounds {
		s.err = s.rewriteRounds()
	}
	if s.owned != nil {
		if cerr := s.owned.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

// Abort flushes buffered events and closes the owned file WITHOUT writing
// the footer: the file stays in the truncated state readers report as
// ErrTruncated — the right disposition for a run that failed mid-way, where
// Close would falsely certify a complete trace whose header still advertises
// the full round budget.
func (s *StreamRecorder) Abort() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.owned != nil {
		if cerr := s.owned.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

// rewriteRounds re-serializes the header with the overridden round budget
// and writes it over the original, padded with spaces to the same length
// (JSON parsers skip the trailing whitespace). Rounds only shrinks on early
// stop, so the new JSON never outgrows the reserved bytes.
func (s *StreamRecorder) rewriteRounds() error {
	if s.wa == nil {
		return fmt.Errorf("trace: cannot rewrite header rounds on a non-seekable destination")
	}
	h := s.h
	h.Rounds = s.rounds
	hdr, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if int64(len(hdr)) > s.jsonLen {
		return fmt.Errorf("trace: rewritten header (%d bytes) exceeds reserved %d bytes", len(hdr), s.jsonLen)
	}
	padded := make([]byte, s.jsonLen)
	copy(padded, hdr)
	for i := len(hdr); i < len(padded); i++ {
		padded[i] = ' '
	}
	_, err = s.wa.WriteAt(padded, s.jsonOff)
	return err
}

// StreamReader parses a trace event by event, validating incrementally with
// the same rules (and typed errors) as Read. Next returns io.EOF after a
// clean footer; ErrTruncated and ErrCorrupt keep their whole-trace meanings.
// Memory use is O(1) in the event count.
type StreamReader struct {
	h     Header
	br    *bufio.Reader
	count int
	prev  float64
	done  bool
	err   error
}

// NewStreamReader reads and validates the header and prepares event
// iteration.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	s := &StreamReader{br: bufio.NewReader(r), prev: math.Inf(-1)}
	if err := s.readHeader(); err != nil {
		return nil, err
	}
	if err := validateHeader(s.h); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *StreamReader) readHeader() error {
	var magic [4]byte
	n, err := io.ReadFull(s.br, magic[:])
	switch {
	case n == 0:
		return fmt.Errorf("%w: empty input", ErrNotTrace)
	case magic[0] == '{':
		return fmt.Errorf("%w: JSONL traces are no longer read; convert the file with `jwins-trace convert in.jsonl out%s` built at commit 735c70e", ErrNotTrace, BinaryExt)
	case err != nil:
		return fmt.Errorf("%w: short magic", ErrNotTrace)
	case magic != binaryMagic:
		return fmt.Errorf("%w: bad magic %q", ErrNotTrace, magic[:])
	}
	version, err := s.br.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: missing version byte", ErrTruncated)
	}
	if version != FormatVersion {
		return fmt.Errorf("%w: %d (reader supports %d)", ErrVersion, version, FormatVersion)
	}
	hdrLen, err := binary.ReadUvarint(s.br)
	if err != nil {
		return truncOr(err, "header length")
	}
	if hdrLen > maxHeaderLen {
		return fmt.Errorf("%w: header length %d exceeds limit", ErrCorrupt, hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(s.br, hdr); err != nil {
		return truncOr(err, "header")
	}
	if err := json.Unmarshal(hdr, &s.h); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	return nil
}

// Header returns the trace header.
func (s *StreamReader) Header() Header { return s.h }

// Count returns the number of events returned so far.
func (s *StreamReader) Count() int { return s.count }

// Next returns the next event. io.EOF marks a cleanly terminated trace; any
// other error is sticky and typed (ErrTruncated, ErrCorrupt).
func (s *StreamReader) Next() (Event, error) {
	if s.done {
		return Event{}, s.err
	}
	ev, err := s.next()
	if err == nil {
		err = validateEvent(s.h, s.count, &ev, s.prev)
	}
	if err != nil {
		s.done, s.err = true, err
		return Event{}, err
	}
	s.count++
	s.prev = ev.Time
	return ev, nil
}

func (s *StreamReader) next() (Event, error) {
	kind, err := s.br.ReadByte()
	if err != nil {
		return Event{}, truncOr(err, "event kind")
	}
	if kind == 0 { // end marker
		count, err := binary.ReadUvarint(s.br)
		if err != nil {
			return Event{}, truncOr(err, "event count")
		}
		if int(count) != s.count {
			return Event{}, fmt.Errorf("%w: end marker declares %d events, read %d", ErrCorrupt, count, s.count)
		}
		if _, err := s.br.ReadByte(); err != io.EOF {
			return Event{}, fmt.Errorf("%w: content after end marker", ErrCorrupt)
		}
		return Event{}, io.EOF
	}
	return readBinaryEvent(s.br, Kind(kind))
}
