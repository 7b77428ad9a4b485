// stream.go is the bounded-memory side of the trace subsystem: a
// StreamRecorder that writes the versioned trace formats incrementally as a
// run executes (so recording a 1024-node schedule never holds O(events) in
// RAM), and a StreamReader that parses traces event by event (so stats and
// diffs over 1024-node traces run on small machines). Both share the
// validation and byte layout of the whole-trace Write/Read paths: a streamed
// recording is byte-identical to writing the equivalent in-memory Recorder,
// and the whole-trace readers are thin loops over StreamReader.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
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
	wa     io.WriterAt // seekable destination (needed only by SetRounds)
	owned  *os.File    // file created by NewStreamRecorderFile; closed by Close
	bw     *bufio.Writer
	enc    *json.Encoder // JSONL mode
	binary bool
	h      Header

	jsonOff, jsonLen int64 // position of the header JSON, for SetRounds rewrite
	count            int
	prev             float64
	rounds           int // SetRounds override; -1 = none
	closed           bool
	err              error

	buf []byte // one event's binary encoding, reused by every Record
}

var (
	_ Sink         = (*StreamRecorder)(nil)
	_ RoundsSetter = (*StreamRecorder)(nil)
)

// NewStreamRecorder starts a streaming recording on w: binary (.jtb layout)
// when bin is set, JSONL otherwise. The header is validated and written
// immediately. SetRounds requires a seekable destination — use
// NewStreamRecorderFile when early-stopped runs must stay replayable.
func NewStreamRecorder(w io.Writer, h Header, bin bool) (*StreamRecorder, error) {
	h.Format = FormatName
	h.Version = FormatVersion
	if err := validateHeader(h); err != nil {
		return nil, err
	}
	s := &StreamRecorder{
		bw:     bufio.NewWriter(w),
		binary: bin,
		buf:    make([]byte, 0, maxBinaryEventLen),
		h:      h,
		prev:   math.Inf(-1),
		rounds: -1,
	}
	if wa, ok := w.(io.WriterAt); ok {
		s.wa = wa // seekable: SetRounds can rewrite the header on Close
	}
	var err error
	if bin {
		s.jsonOff, s.jsonLen, err = writeBinaryHeader(s.bw, h)
	} else {
		var hdr []byte
		if hdr, err = json.Marshal(h); err == nil {
			s.jsonOff, s.jsonLen = 0, int64(len(hdr))
			if _, err = s.bw.Write(hdr); err == nil {
				err = s.bw.WriteByte('\n')
			}
		}
		s.enc = json.NewEncoder(s.bw)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewStreamRecorderFile creates path and streams to it, choosing the
// encoding by extension like WriteFile (BinaryExt selects binary). The file
// is owned by the recorder: Close finalizes and closes it.
func NewStreamRecorderFile(path string, h Header) (*StreamRecorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s, err := NewStreamRecorder(f, h, strings.HasSuffix(path, BinaryExt))
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
	if s.binary {
		s.buf = appendBinaryEvent(s.buf[:0], &ev)
		_, s.err = s.bw.Write(s.buf)
	} else {
		// Encode takes an interface: hand it a copy, so that ev itself stays
		// on the stack on the binary path.
		jev := ev
		s.err = s.enc.Encode(&jev)
	}
	if s.err == nil {
		s.count++
		s.prev = ev.Time
	}
}

// Len returns the number of events recorded so far.
func (s *StreamRecorder) Len() int { return s.count }

// Err returns the sticky recording error, if any.
func (s *StreamRecorder) Err() error { return s.err }

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
		if s.binary {
			_, s.err = s.bw.Write(appendBinaryEnd(s.buf[:0], s.count))
		} else {
			s.err = s.enc.Encode(footer{End: true, Events: s.count})
		}
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

// StreamReader parses a trace event by event, sniffing the encoding from the
// first bytes and validating incrementally with the same rules (and typed
// errors) as Read. Next returns io.EOF after a clean footer; ErrTruncated
// and ErrCorrupt keep their whole-trace meanings. Memory use is O(1) in the
// event count.
type StreamReader struct {
	h     Header
	bin   bool
	br    *bufio.Reader  // binary mode
	sc    *bufio.Scanner // JSONL mode
	count int
	prev  float64
	done  bool
	err   error

	// JSONL deferred-parse-error state: an unparsable line is corruption if
	// anything follows it, but ErrTruncated when it is the last line.
	pendingErr error
	line       int
	sawFooter  bool
}

// NewStreamReader sniffs and validates the header and prepares event
// iteration.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("%w: empty input", ErrNotTrace)
	}
	s := &StreamReader{prev: math.Inf(-1), line: 1}
	switch first[0] {
	case binaryMagic[0]:
		s.bin = true
		s.br = br
		err = s.initBinary()
	case '{':
		s.sc = bufio.NewScanner(br)
		s.sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		err = s.initJSONL()
	default:
		return nil, fmt.Errorf("%w: unrecognized leading byte %q", ErrNotTrace, first[0])
	}
	if err != nil {
		return nil, err
	}
	if err := validateHeader(s.h); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *StreamReader) initBinary() error {
	var magic [4]byte
	if _, err := io.ReadFull(s.br, magic[:]); err != nil {
		return fmt.Errorf("%w: short magic", ErrNotTrace)
	}
	if magic != binaryMagic {
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

func (s *StreamReader) initJSONL() error {
	if !s.sc.Scan() {
		return fmt.Errorf("%w: no header line", ErrNotTrace)
	}
	if err := json.Unmarshal(s.sc.Bytes(), &s.h); err != nil {
		return fmt.Errorf("%w: header: %v", ErrNotTrace, err)
	}
	if s.h.Format != FormatName {
		return fmt.Errorf("%w: header format %q", ErrNotTrace, s.h.Format)
	}
	if s.h.Version != FormatVersion {
		return fmt.Errorf("%w: %d (reader supports %d)", ErrVersion, s.h.Version, FormatVersion)
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
	var (
		ev  Event
		err error
	)
	if s.bin {
		ev, err = s.nextBinary()
	} else {
		ev, err = s.nextJSONL()
	}
	if err != nil {
		s.done, s.err = true, err
		return Event{}, err
	}
	if err := validateEvent(s.h, s.count, &ev, s.prev); err != nil {
		s.done, s.err = true, err
		return Event{}, err
	}
	s.count++
	s.prev = ev.Time
	return ev, nil
}

func (s *StreamReader) nextBinary() (Event, error) {
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

func (s *StreamReader) nextJSONL() (Event, error) {
	for s.sc.Scan() {
		s.line++
		raw := bytes.TrimSpace(s.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if s.pendingErr != nil {
			return Event{}, s.pendingErr
		}
		if s.sawFooter {
			return Event{}, fmt.Errorf("%w: line %d: content after footer", ErrCorrupt, s.line)
		}
		var f footer
		if err := json.Unmarshal(raw, &f); err == nil && f.End {
			if f.Events != s.count {
				return Event{}, fmt.Errorf("%w: footer declares %d events, read %d", ErrCorrupt, f.Events, s.count)
			}
			s.sawFooter = true
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			s.pendingErr = fmt.Errorf("%w: line %d: %v", ErrCorrupt, s.line, err)
			continue
		}
		return ev, nil
	}
	if err := s.sc.Err(); err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if s.pendingErr != nil {
		// The unparsable line was the last one: a mid-write cut-off.
		return Event{}, fmt.Errorf("%w: last line unparsable after %d events", ErrTruncated, s.count)
	}
	if !s.sawFooter {
		return Event{}, fmt.Errorf("%w: footer missing after %d events", ErrTruncated, s.count)
	}
	return Event{}, io.EOF
}
