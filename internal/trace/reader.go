// reader.go parses traces back, validating strictly: a wrong magic or
// format is ErrNotTrace, a wrong version ErrVersion, a missing or short
// footer ErrTruncated, and anything structurally invalid (unknown kinds,
// range violations, time regressions, footer count mismatches) ErrCorrupt.
// The whole-trace readers here are thin loops over StreamReader (stream.go),
// which tools can use directly to inspect 1024-node traces without
// materializing the event slice.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// maxHeaderLen bounds the binary header's declared JSON length so corrupt
// length prefixes cannot trigger huge allocations.
const maxHeaderLen = 1 << 20

// Read parses a trace and validates it fully.
func Read(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Header: sr.Header()}
	for {
		ev, err := sr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, ev)
	}
}

// ReadFile reads and validates the trace at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// ReadStats streams a trace, computing its Stats without materializing the
// event slice — the way to inspect 1024-node traces on small
// machines (retained state: O(nodes) counters plus one float per aggregate
// event for the exact staleness P95). On ErrTruncated the stats of the
// readable prefix are returned alongside the error, so tools can degrade
// gracefully on recordings cut off mid-write.
func ReadStats(r io.Reader) (Header, Stats, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return Header{}, Stats{}, err
	}
	var acc statsAccum
	acc.init()
	for {
		ev, err := sr.Next()
		if err == io.EOF {
			return sr.Header(), acc.finish(), nil
		}
		if err != nil {
			return sr.Header(), acc.finish(), err
		}
		acc.add(&ev)
	}
}

// ReadStatsFile is ReadStats over a file.
func ReadStatsFile(path string) (Header, Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, Stats{}, err
	}
	defer f.Close()
	h, s, rerr := ReadStats(f)
	if rerr != nil && !errors.Is(rerr, ErrTruncated) {
		return h, s, fmt.Errorf("%s: %w", path, rerr)
	}
	return h, s, rerr
}

// readBinaryEvent decodes one binary event body (after its kind byte).
func readBinaryEvent(br *bufio.Reader, kind Kind) (Event, error) {
	ev := Event{Kind: kind}
	if !kind.Valid() {
		return ev, fmt.Errorf("%w: unknown event kind %d", ErrCorrupt, uint8(kind))
	}
	flags, err := br.ReadByte()
	if err != nil {
		return ev, truncOr(err, "event flags")
	}
	ev.Dropped = flags&1 != 0
	var tb [8]byte
	if _, err := io.ReadFull(br, tb[:]); err != nil {
		return ev, truncOr(err, "event time")
	}
	ev.Time = math.Float64frombits(binary.LittleEndian.Uint64(tb[:]))
	fields := [8]*int{&ev.Node, &ev.Peer, &ev.Iter, &ev.Bytes, &ev.ModelBytes, &ev.MetaBytes, &ev.LagMax, &ev.LagN}
	for i, dst := range fields {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return ev, truncOr(err, "event field")
		}
		if v > math.MaxInt32 {
			return ev, fmt.Errorf("%w: event field %d overflows", ErrCorrupt, i)
		}
		*dst = int(v)
	}
	ev.Peer-- // stored shifted by one so -1 packs as zero
	if kind == KindAggregate {
		if _, err := io.ReadFull(br, tb[:]); err != nil {
			return ev, truncOr(err, "lag mean")
		}
		ev.LagMean = math.Float64frombits(binary.LittleEndian.Uint64(tb[:]))
	}
	return ev, nil
}

// truncOr maps unexpected EOFs to ErrTruncated and everything else to
// ErrCorrupt, annotated with what was being read.
func truncOr(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: mid %s", ErrTruncated, what)
	}
	return fmt.Errorf("%w: reading %s: %v", ErrCorrupt, what, err)
}
