package trace

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSeedTrace is a small but representative trace: every event kind the
// binary layout special-cases (aggregate's trailing LagMean float, send's
// byte counters, the shifted peer field, the dropped flag) plus header meta.
func fuzzSeedTrace() *Trace {
	return &Trace{
		Header: Header{
			Format: FormatName, Version: FormatVersion,
			Nodes: 4, Rounds: 2, Source: SourceSim, Policy: PolicyBarrier,
			Meta: map[string]string{"algo": "jwins", "seed": "7"},
		},
		Events: []Event{
			{Time: 0.5, Kind: KindTrainDone, Node: 0, Peer: -1, Iter: 0},
			{Time: 0.6, Kind: KindSend, Node: 0, Peer: 1, Iter: 0, Bytes: 120, ModelBytes: 100, MetaBytes: 20},
			{Time: 0.6, Kind: KindSend, Node: 0, Peer: 2, Iter: 0, Bytes: 120, ModelBytes: 100, MetaBytes: 20, Dropped: true},
			{Time: 0.7, Kind: KindArrival, Node: 1, Peer: 0, Iter: 0},
			{Time: 0.9, Kind: KindAggregate, Node: 1, Peer: -1, Iter: 0, LagMax: 2, LagMean: 0.5, LagN: 3},
			{Time: 1.0, Kind: KindEpoch, Node: 0, Peer: -1, Iter: 1},
			{Time: 1.1, Kind: KindLeave, Node: 3, Peer: -1, Iter: 1},
			{Time: 1.3, Kind: KindJoin, Node: 3, Peer: -1, Iter: 1},
			{Time: 1.4, Kind: KindDeadline, Node: 2, Peer: -1, Iter: 1},
		},
	}
}

// FuzzTraceRead drives the trace reader with mutated bytes: it must never
// panic, must reject input that opens with '{' (the retired JSONL
// encoding), and any trace it accepts must be re-encodable and re-readable
// with nothing lost — the property record→replay tooling depends on when it
// round-trips recordings through files.
func FuzzTraceRead(f *testing.F) {
	var bin bytes.Buffer
	if err := Write(&bin, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add([]byte(`{"format":"jwins-trace","version":1,"nodes":4}`))
	// Structural mutants: truncated footer, bad magic, bad version byte.
	f.Add(bin.Bytes()[:len(bin.Bytes())-2])
	f.Add([]byte("JWTX"))
	f.Add(append([]byte{'J', 'W', 'T', 'R', 99}, bin.Bytes()[5:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		tr, err := Read(bytes.NewReader(data))
		if len(data) > 0 && data[0] == '{' && err == nil {
			t.Fatal("accepted input that opens with '{'")
		}
		if err != nil {
			return
		}
		// The reader validated every event with the same rules Write
		// enforces, so an accepted trace that fails to re-encode means the two
		// validation paths drifted apart.
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("accepted trace fails to re-encode: %v", err)
		}
		tr2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace fails to read back: %v", err)
		}
		assertHeaderEqual(t, tr.Header, tr2.Header)
		if len(tr2.Events) != len(tr.Events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(tr.Events), len(tr2.Events))
		}
		for i := range tr.Events {
			assertEventEqual(t, i, tr.Events[i], tr2.Events[i])
		}
	})
}

func assertHeaderEqual(t *testing.T, a, b Header) {
	t.Helper()
	if a.Format != b.Format || a.Version != b.Version || a.Nodes != b.Nodes ||
		a.Rounds != b.Rounds || a.Source != b.Source || a.Policy != b.Policy {
		t.Fatalf("round trip changed header:\n before %+v\n after  %+v", a, b)
	}
	// Meta survives as a JSON object in the header; an empty map and a nil
	// one serialize identically (omitted), so treat them as equal.
	if len(a.Meta) != len(b.Meta) {
		t.Fatalf("round trip changed meta:\n before %v\n after  %v", a.Meta, b.Meta)
	}
	for k, v := range a.Meta {
		if b.Meta[k] != v {
			t.Fatalf("round trip changed meta[%q]: %q -> %q", k, v, b.Meta[k])
		}
	}
}

func assertEventEqual(t *testing.T, i int, a, b Event) {
	t.Helper()
	// Floats compare as bits: NaN LagMean and signed zeros must survive the
	// round trip unchanged, and bit equality is exactly what "unchanged" means
	// for an on-disk format.
	if math.Float64bits(a.Time) != math.Float64bits(b.Time) ||
		a.Kind != b.Kind || a.Node != b.Node || a.Peer != b.Peer || a.Iter != b.Iter ||
		a.Dropped != b.Dropped || a.Bytes != b.Bytes || a.ModelBytes != b.ModelBytes ||
		a.MetaBytes != b.MetaBytes || a.LagMax != b.LagMax || a.LagN != b.LagN ||
		math.Float64bits(a.LagMean) != math.Float64bits(b.LagMean) {
		t.Fatalf("round trip changed event %d:\n before %+v\n after  %+v", i, a, b)
	}
}
