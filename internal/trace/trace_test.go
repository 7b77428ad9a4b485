package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// sampleTrace builds a small but representative trace exercising every kind,
// drops, churn, and repeated (node, iter) keys.
func sampleTrace() *Trace {
	h := Header{
		Format: FormatName, Version: FormatVersion,
		Nodes: 4, Rounds: 2, Source: SourceSim, Policy: PolicyBarrier,
		Meta: map[string]string{"dataset": "cifar10", "seed": "42"},
	}
	events := []Event{
		{Time: 0.010, Kind: KindTrainDone, Node: 0, Peer: -1, Iter: 0},
		{Time: 0.010, Kind: KindSend, Node: 0, Peer: 1, Iter: 0, Bytes: 140, ModelBytes: 100, MetaBytes: 40},
		{Time: 0.010, Kind: KindSend, Node: 0, Peer: 2, Iter: 0, Bytes: 140, ModelBytes: 100, MetaBytes: 40, Dropped: true},
		{Time: 0.012, Kind: KindTrainDone, Node: 1, Peer: -1, Iter: 0},
		{Time: 0.013, Kind: KindSend, Node: 1, Peer: 0, Iter: 0, Bytes: 150, ModelBytes: 110, MetaBytes: 40},
		{Time: 0.020, Kind: KindArrival, Node: 1, Peer: 0, Iter: 0},
		{Time: 0.021, Kind: KindArrival, Node: 2, Peer: 0, Iter: 0, Dropped: true},
		{Time: 0.022, Kind: KindArrival, Node: 0, Peer: 1, Iter: 0},
		{Time: 0.022, Kind: KindAggregate, Node: 0, Peer: -1, Iter: 0, LagMax: 2, LagMean: 1.5, LagN: 2},
		{Time: 0.030, Kind: KindLeave, Node: 3, Peer: -1},
		{Time: 0.040, Kind: KindEpoch, Node: 0, Peer: -1, Iter: 1},
		{Time: 0.050, Kind: KindJoin, Node: 3, Peer: -1},
		{Time: 0.060, Kind: KindTrainDone, Node: 0, Peer: -1, Iter: 1},
		{Time: 0.061, Kind: KindAggregate, Node: 1, Peer: -1, Iter: 0, LagN: 1, LagMean: 0},
	}
	return &Trace{Header: h, Events: events}
}

// TestRoundTripBinary: every field of every kind survives Write → Read.
func TestRoundTripBinary(t *testing.T) {
	src := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Header.Nodes != src.Header.Nodes || got.Header.Source != src.Header.Source ||
		got.Header.Policy != src.Header.Policy || got.Header.Meta["dataset"] != "cifar10" {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if len(got.Events) != len(src.Events) {
		t.Fatalf("event count: got %d, want %d", len(got.Events), len(src.Events))
	}
	for i := range src.Events {
		if got.Events[i] != src.Events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got.Events[i], src.Events[i])
		}
	}
}

// TestBinaryIsCompact: the point of the binary layout. Past the header, an
// event of the sample packs in about 20 bytes: kind, flags, the timestamp
// and one byte per small counter.
func TestBinaryIsCompact(t *testing.T) {
	src := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	start, _ := indexHeaderEnd(buf.Bytes())
	if per := float64(buf.Len()-start) / float64(len(src.Events)); per > 24 {
		t.Fatalf("%.1f bytes per event, want at most 24", per)
	}
}

// TestReaderRejections: truncated, corrupt, mis-versioned and JSONL inputs
// must fail with the matching typed error.
func TestReaderRejections(t *testing.T) {
	var bin bytes.Buffer
	if err := Write(&bin, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	// Binary bad version: patch the version byte.
	bv := append([]byte(nil), bin.Bytes()...)
	bv[4] = 99
	// Binary corrupt kind: patch the first event's kind byte to 200. The
	// first event starts right after magic+version+uvarint(len)+header JSON.
	bk := append([]byte(nil), bin.Bytes()...)
	hdrJSON, _ := indexHeaderEnd(bk)
	bk[hdrJSON] = 200

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrNotTrace},
		{"garbage", []byte("hello world\n"), ErrNotTrace},
		{"binary-truncated", bin.Bytes()[:bin.Len()-3], ErrTruncated},
		{"binary-mid-event", bin.Bytes()[:bin.Len()/2], ErrTruncated},
		{"binary-bad-version", bv, ErrVersion},
		// Same length, so the header's length prefix still holds.
		{"header-bad-version", bytes.Replace(bin.Bytes(), []byte(`"version":1`), []byte(`"version":9`), 1), ErrVersion},
		{"binary-corrupt-kind", bk, ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := Read(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// A JSONL trace, the encoding before .jtb became the only one, opens
	// with '{': the error says how to convert it.
	jsonl := `{"format":"jwins-trace","version":1,"nodes":4,"rounds":2,"source":"sim","policy":"barrier"}` + "\n"
	_, err := Read(strings.NewReader(jsonl))
	if !errors.Is(err, ErrNotTrace) {
		t.Fatalf("JSONL input: got %v, want ErrNotTrace", err)
	}
	if !strings.Contains(err.Error(), "jwins-trace convert") {
		t.Fatalf("JSONL input: error %q does not name the conversion", err)
	}
}

// indexHeaderEnd finds the offset of the first event in a binary trace.
func indexHeaderEnd(b []byte) (int, error) {
	i := 5 // magic + version
	hdrLen := 0
	for shift := 0; ; shift += 7 {
		c := b[i]
		i++
		hdrLen |= int(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	return i + hdrLen, nil
}

// TestValidateRejects: structural violations are ErrCorrupt.
func TestValidateRejects(t *testing.T) {
	base := sampleTrace()
	mutate := func(f func(*Trace)) *Trace {
		cp := &Trace{Header: base.Header, Events: append([]Event(nil), base.Events...)}
		f(cp)
		return cp
	}
	cases := map[string]*Trace{
		"node-out-of-range": mutate(func(tr *Trace) { tr.Events[0].Node = 99 }),
		"peer-out-of-range": mutate(func(tr *Trace) { tr.Events[1].Peer = -3 }),
		"peer-on-traindone": mutate(func(tr *Trace) { tr.Events[0].Peer = 1 }),
		"time-regression":   mutate(func(tr *Trace) { tr.Events[3].Time = 0.001 }),
		"nan-time":          mutate(func(tr *Trace) { tr.Events[0].Time = math.NaN() }),
		"negative-iter":     mutate(func(tr *Trace) { tr.Events[0].Iter = -1 }),
		"zero-nodes":        mutate(func(tr *Trace) { tr.Header.Nodes = 0 }),
	}
	for name, tr := range cases {
		if err := Validate(tr.Header, tr.Events); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err == nil {
			t.Errorf("%s: writer accepted invalid trace", name)
		}
	}
}

// TestReplayerIndex: FIFO consumption per key, churn passthrough, and typed
// failure on empty schedules.
func TestReplayerIndex(t *testing.T) {
	tr := sampleTrace()
	rp, err := NewReplayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rp.TrainDoneTime(0, 0); !ok || got != 0.010 {
		t.Fatalf("TrainDoneTime(0,0) = %v,%v", got, ok)
	}
	if got, ok := rp.TrainDoneTime(0, 1); !ok || got != 0.060 {
		t.Fatalf("TrainDoneTime(0,1) = %v,%v", got, ok)
	}
	if _, ok := rp.TrainDoneTime(0, 0); ok {
		t.Fatal("TrainDoneTime(0,0) should be consumed")
	}
	if _, ok := rp.TrainDoneTime(2, 0); ok {
		t.Fatal("TrainDoneTime(2,0) should not exist")
	}
	at, dropped, ok := rp.NextArrival(0, 2, 0)
	if !ok || !dropped || at != 0.021 {
		t.Fatalf("NextArrival(0,2,0) = %v,%v,%v", at, dropped, ok)
	}
	if at, dropped, ok = rp.NextArrival(0, 1, 0); !ok || dropped || at != 0.020 {
		t.Fatalf("NextArrival(0,1,0) = %v,%v,%v", at, dropped, ok)
	}
	churn := rp.Churn()
	if len(churn) != 2 || churn[0].Kind != KindLeave || churn[1].Kind != KindJoin || churn[0].Node != 3 {
		t.Fatalf("churn: %+v", churn)
	}
	epochs := rp.Epochs()
	if len(epochs) != 1 || epochs[0].Kind != KindEpoch || epochs[0].Iter != 1 || epochs[0].Time != 0.040 {
		t.Fatalf("epochs: %+v", epochs)
	}
	empty := &Trace{Header: tr.Header, Events: []Event{{Time: 0, Kind: KindLeave, Node: 0, Peer: -1}}}
	if _, err := NewReplayer(empty); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty schedule: got %v, want ErrCorrupt", err)
	}
}

// TestStatsAndCompare: the summary and diff report the ledger, staleness,
// and ordering agreement.
func TestStatsAndCompare(t *testing.T) {
	tr := sampleTrace()
	s := ComputeStats(tr)
	if s.Events != len(tr.Events) || s.ByKind[KindSend] != 3 || s.Drops != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.TotalBytes != 140+140+150 {
		t.Fatalf("total bytes: %d", s.TotalBytes)
	}
	// Payload-weighted mean: (1.5*2 + 0*1) / 3 payloads.
	if s.StaleMax != 2 || s.StaleMean != 1.0 {
		t.Fatalf("staleness: mean %v max %v", s.StaleMean, s.StaleMax)
	}
	if s.Duration != 0.061 {
		t.Fatalf("duration: %v", s.Duration)
	}

	same := Compare(tr, tr)
	if !same.InSync() || same.TimeErrMax != 0 || same.Matched != len(tr.Events) {
		t.Fatalf("self-compare not in sync: %+v", same)
	}

	// Shift every time by 0.5s and drop one event: times diverge, sequence
	// keys still pair, the dropped event is unmatched.
	shifted := &Trace{Header: tr.Header, Events: append([]Event(nil), tr.Events...)}
	for i := range shifted.Events {
		shifted.Events[i].Time += 0.5
	}
	shifted.Events = shifted.Events[:len(shifted.Events)-1]
	d := Compare(tr, shifted)
	if d.OnlyA != 1 || d.OnlyB != 0 {
		t.Fatalf("unmatched counts: %+v", d)
	}
	if math.Abs(d.TimeErrMean-0.5) > 1e-12 || math.Abs(d.TimeErrMax-0.5) > 1e-12 {
		t.Fatalf("time error: %+v", d)
	}
	if d.InSync() {
		t.Fatal("diff with missing event reported in sync")
	}
}

// TestQuantile: nearest-rank behaviour on small samples.
func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	if q := Quantile(xs, 0.95); q != 5 {
		t.Fatalf("p95 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("p50 = %v", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty = %v", q)
	}
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}
