package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"testing"
)

// TestStreamRecorderByteIdentical: streaming a trace event by event must
// produce exactly the bytes of the whole-trace writer — the property that
// makes streamed recordings interchangeable with in-memory ones for replay
// and diffing.
func TestStreamRecorderByteIdentical(t *testing.T) {
	src := sampleTrace()
	t.Run("binary", func(t *testing.T) {
		var want bytes.Buffer
		if err := Write(&want, src); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		sr, err := NewStreamRecorder(&got, src.Header)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range src.Events {
			sr.Record(ev)
		}
		if err := sr.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("streamed bytes differ from the whole-trace writer (%d vs %d bytes)", got.Len(), want.Len())
		}
	})
}

// TestStreamReaderMatchesRead: the streaming reader must yield exactly the
// events Read returns.
func TestStreamReaderMatchesRead(t *testing.T) {
	src := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Header().Nodes != src.Header.Nodes {
		t.Fatalf("header nodes %d", sr.Header().Nodes)
	}
	var got []Event
	for {
		ev, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != len(src.Events) {
		t.Fatalf("got %d events, want %d", len(got), len(src.Events))
	}
	for i := range got {
		if got[i] != src.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, got[i], src.Events[i])
		}
	}
}

// TestStreamRecorderTruncation: a recording abandoned mid-write (no Close)
// must read back as ErrTruncated — not ErrCorrupt — and ReadStats must still
// summarize the readable prefix.
func TestStreamRecorderTruncation(t *testing.T) {
	src := sampleTrace()
	const keep = 9
	t.Run("binary", func(t *testing.T) {
		var buf bytes.Buffer
		sr, err := NewStreamRecorder(&buf, src.Header)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range src.Events[:keep] {
			sr.Record(ev)
		}
		if err := sr.Flush(); err != nil {
			t.Fatal(err)
		}
		// No Close: the footer is missing, as after a mid-run kill.
		_, err = Read(bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("Read of truncated stream: got %v, want ErrTruncated", err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated stream misreported as corrupt")
		}

		h, stats, err := ReadStats(bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("ReadStats: got %v, want ErrTruncated", err)
		}
		if h.Nodes != src.Header.Nodes {
			t.Fatalf("ReadStats header lost: %+v", h)
		}
		if stats.Events != keep {
			t.Fatalf("prefix stats cover %d events, want %d", stats.Events, keep)
		}
	})
}

// TestStreamRecorderCloseIdempotent: Close and Abort must be safe to call in
// any order after finalization — a second Close must not append a second
// footer, Abort after Close must not un-finalize the file, and Close after
// Abort must not graft a footer onto a deliberately truncated recording.
func TestStreamRecorderCloseIdempotent(t *testing.T) {
	src := sampleTrace()
	var buf bytes.Buffer
	sr, err := NewStreamRecorder(&buf, src.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range src.Events {
		sr.Record(ev)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	closed := buf.Len()
	if err := sr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sr.Abort(); err != nil {
		t.Fatalf("Abort after Close: %v", err)
	}
	if buf.Len() != closed {
		t.Fatalf("finalized recording grew from %d to %d bytes", closed, buf.Len())
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("finalized recording unreadable after redundant calls: %v", err)
	}

	// Close after Abort: the file must stay truncated.
	buf.Reset()
	sr, err = NewStreamRecorder(&buf, src.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range src.Events[:3] {
		sr.Record(ev)
	}
	if err := sr.Abort(); err != nil {
		t.Fatal(err)
	}
	aborted := buf.Len()
	if err := sr.Close(); err != nil {
		t.Fatalf("Close after Abort: %v", err)
	}
	if buf.Len() != aborted {
		t.Fatalf("Close after Abort appended %d bytes", buf.Len()-aborted)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrTruncated) {
		t.Fatalf("aborted recording reads as %v, want ErrTruncated", err)
	}
}

// TestStreamRecorderHardTruncation: cutting the byte stream mid-event (the
// other way a kill can land) must also be ErrTruncated.
func TestStreamRecorderHardTruncation(t *testing.T) {
	src := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-7] // inside the last event/footer
	if _, err := Read(bytes.NewReader(cut)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

// TestStreamRecorderSetRounds: the padded in-place header rewrite of
// early-stopped runs must survive a file round trip.
func TestStreamRecorderSetRounds(t *testing.T) {
	src := sampleTrace()
	path := filepath.Join(t.TempDir(), "run"+BinaryExt)
	sr, err := NewStreamRecorderFile(path, src.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range src.Events {
		sr.Record(ev)
	}
	sr.SetRounds(1)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Rounds != 1 {
		t.Fatalf("header rounds %d after SetRounds(1)", tr.Header.Rounds)
	}
	if len(tr.Events) != len(src.Events) {
		t.Fatalf("%d events, want %d", len(tr.Events), len(src.Events))
	}
}

// TestStreamRecorderSetRoundsNonSeekable: on a plain writer the rewrite is
// impossible; Close must report it rather than leave a misleading header.
func TestStreamRecorderSetRoundsNonSeekable(t *testing.T) {
	var buf bytes.Buffer
	sr, err := NewStreamRecorder(&buf, sampleTrace().Header)
	if err != nil {
		t.Fatal(err)
	}
	sr.Record(sampleTrace().Events[0])
	sr.SetRounds(1)
	if err := sr.Close(); err == nil {
		t.Fatal("Close accepted a SetRounds rewrite on a non-seekable destination")
	}
}

// TestStreamRecorderValidates: an invalid event must stick as the recording
// error and surface at Close.
func TestStreamRecorderValidates(t *testing.T) {
	var buf bytes.Buffer
	sr, err := NewStreamRecorder(&buf, sampleTrace().Header)
	if err != nil {
		t.Fatal(err)
	}
	sr.Record(Event{Time: 1, Kind: KindTrainDone, Node: 99, Peer: -1}) // node out of range
	if sr.err == nil {
		t.Fatal("invalid event accepted")
	}
	if err := sr.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Close: got %v, want ErrCorrupt", err)
	}
}

// TestReadStatsMatchesComputeStats: the streaming stats must equal the
// in-memory ones.
func TestReadStatsMatchesComputeStats(t *testing.T) {
	src := sampleTrace()
	want := ComputeStats(src)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != want.Events || got.TotalBytes != want.TotalBytes ||
		got.Drops != want.Drops || got.NodesSeen != want.NodesSeen ||
		got.Duration != want.Duration || got.StaleMax != want.StaleMax ||
		math.Abs(got.StaleMean-want.StaleMean) > 1e-12 {
		t.Fatalf("streaming stats %+v differ from %+v", got, want)
	}
	for k, n := range want.ByKind {
		if got.ByKind[k] != n {
			t.Fatalf("kind %v: %d vs %d", k, got.ByKind[k], n)
		}
	}
}

// TestStreamRecorderRecordAllocationFree: the async engine calls Record for
// every send, arrival and aggregation — about a million times on a 2048-node
// run — so it must not allocate: no closure, no escaping event,
// no per-event buffer.
func TestStreamRecorderRecordAllocationFree(t *testing.T) {
	src := sampleTrace()
	sr, err := NewStreamRecorder(io.Discard, src.Header)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone timestamps forever: replay the sample's kinds at one instant.
	evs := append([]Event(nil), src.Events...)
	for i := range evs {
		evs[i].Time = 1
	}
	k := 0
	avg := testing.AllocsPerRun(1000, func() {
		sr.Record(evs[k%len(evs)])
		k++
	})
	if err := sr.err; err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("Record allocates %.2f times per event, want 0", avg)
	}
}
