package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// timelineDoc mirrors the Chrome trace-event JSON object format.
type timelineDoc struct {
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	TraceEvents     []json.RawMessage `json:"traceEvents"`
}

// tlRecord decodes one timeline record with the format's required keys kept
// as pointers so their presence is checkable.
type tlRecord struct {
	Name *string        `json:"name"`
	Ph   *string        `json:"ph"`
	Ts   *int64         `json:"ts"`
	Dur  *int64         `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

// mixedKindTrace builds a small trace exercising every event kind.
func mixedKindTrace() *Trace {
	h := Header{Nodes: 3, Rounds: 2, Source: SourceSim, Policy: PolicyBarrier}
	return &Trace{Header: h, Events: []Event{
		{Time: 0.010, Kind: KindTrainDone, Node: 0, Peer: -1, Iter: 0},
		{Time: 0.011, Kind: KindSend, Node: 0, Peer: 1, Iter: 0, Bytes: 100, ModelBytes: 80, MetaBytes: 20},
		{Time: 0.012, Kind: KindTrainDone, Node: 1, Peer: -1, Iter: 0},
		{Time: 0.013, Kind: KindSend, Node: 1, Peer: 0, Iter: 0, Bytes: 120, ModelBytes: 90, MetaBytes: 30},
		{Time: 0.014, Kind: KindArrival, Node: 1, Peer: 0, Iter: 0},
		{Time: 0.015, Kind: KindArrival, Node: 0, Peer: 1, Iter: 0, Dropped: true},
		{Time: 0.016, Kind: KindDeadline, Node: 0, Peer: -1, Iter: 0},
		{Time: 0.017, Kind: KindAggregate, Node: 0, Peer: -1, Iter: 0, LagN: 1, LagMax: 0},
		{Time: 0.018, Kind: KindAggregate, Node: 1, Peer: -1, Iter: 0, LagN: 1},
		{Time: 0.020, Kind: KindEpoch, Node: 0, Peer: -1, Iter: 1},
		{Time: 0.021, Kind: KindLeave, Node: 2, Peer: -1, Iter: 0},
		{Time: 0.025, Kind: KindJoin, Node: 2, Peer: -1, Iter: 1},
	}}
}

// decodeTimeline parses and structurally validates a timeline document:
// every record carries the required keys, X records a non-negative dur.
func decodeTimeline(t *testing.T, buf []byte) []tlRecord {
	t.Helper()
	var doc timelineDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%.400s", err, buf)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	out := make([]tlRecord, 0, len(doc.TraceEvents))
	for i, raw := range doc.TraceEvents {
		var rec tlRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Name == nil || rec.Ph == nil || rec.Ts == nil || rec.Pid == nil || rec.Tid == nil {
			t.Fatalf("record %d lacks a required key (name/ph/ts/pid/tid): %s", i, raw)
		}
		switch *rec.Ph {
		case "X":
			if rec.Dur == nil || *rec.Dur < 0 {
				t.Fatalf("record %d: complete event without non-negative dur: %s", i, raw)
			}
		case "M", "i", "C":
		default:
			t.Fatalf("record %d: unexpected phase %q", i, *rec.Ph)
		}
		out = append(out, rec)
	}
	return out
}

func countByName(recs []tlRecord) map[string]int {
	m := map[string]int{}
	for _, r := range recs {
		m[*r.Name]++
	}
	return m
}

func TestWriteTimelineMixedKinds(t *testing.T) {
	tr := mixedKindTrace()
	var enc bytes.Buffer
	sr, err := NewStreamRecorder(&enc, tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		sr.Record(ev)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	reader, err := NewStreamReader(&enc)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n, err := WriteTimeline(&out, reader)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeTimeline(t, out.Bytes())
	if len(recs) != n {
		t.Fatalf("reported %d records, decoded %d", n, len(recs))
	}
	names := countByName(recs)
	// Metadata: process_name + run thread + 3 node threads.
	if names["process_name"] != 1 || names["thread_name"] != 4 {
		t.Fatalf("metadata counts %v", names)
	}
	if names[timelineTrain] != 2 {
		t.Fatalf("train spans = %d, want 2", names[timelineTrain])
	}
	if names[timelineWait] != 2 {
		t.Fatalf("wait spans = %d, want 2", names[timelineWait])
	}
	if names[timelineBytes] != 2 {
		t.Fatalf("byte counter records = %d, want 2", names[timelineBytes])
	}
	if names[timelineDrop] != 1 || names["deadline"] != 1 || names["leave"] != 1 ||
		names["join"] != 1 || names[timelineEpoch] != 1 {
		t.Fatalf("marker counts %v", names)
	}
	// The wait span of node 0 runs train-done (10ms) → aggregate (17ms).
	for _, r := range recs {
		if *r.Name == timelineWait && *r.Tid == 0 {
			if *r.Ts != 10000 || *r.Dur != 7000 {
				t.Fatalf("node-0 wait span ts=%d dur=%d, want 10000/7000", *r.Ts, *r.Dur)
			}
		}
	}
	// The counter series is cumulative.
	var last int64 = -1
	for _, r := range recs {
		if *r.Name != timelineBytes {
			continue
		}
		b := int64(r.Args["bytes"].(float64))
		if b <= last {
			t.Fatalf("byte counter not increasing: %d after %d", b, last)
		}
		last = b
	}
	if last != 220 {
		t.Fatalf("final cumulative bytes = %d, want 220", last)
	}
}

// TestWriteTimelineFileTruncated: a recording cut off mid-write still yields
// a valid, loadable timeline of its readable prefix plus ErrTruncated.
func TestWriteTimelineFileTruncated(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "cut.jtb")
	f, err := os.Create(src)
	if err != nil {
		t.Fatal(err)
	}
	tr := mixedKindTrace()
	sr, err := NewStreamRecorder(f, tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events[:4] {
		sr.Record(ev)
	}
	if err := sr.Flush(); err != nil {
		t.Fatal(err)
	}
	// No Close: the footer is missing, as after a mid-run kill.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "cut.json")
	n, err := WriteTimelineFile(dst, src)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	buf, rerr := os.ReadFile(dst)
	if rerr != nil {
		t.Fatal(rerr)
	}
	recs := decodeTimeline(t, buf)
	if len(recs) != n {
		t.Fatalf("reported %d records, decoded %d", n, len(recs))
	}
	names := countByName(recs)
	if names[timelineTrain] != 2 || names[timelineBytes] != 2 {
		t.Fatalf("prefix conversion counts %v", names)
	}
}

// TestWriteTimelineFileNotATrace: garbage input is a hard error and writes
// nothing.
func TestWriteTimelineFileNotATrace(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "garbage.jtb")
	if err := os.WriteFile(src, []byte("definitely not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTimelineFile(filepath.Join(dir, "out.json"), src); !errors.Is(err, ErrNotTrace) {
		t.Fatalf("err = %v, want ErrNotTrace", err)
	}
}
