package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/experiments"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// TestStatsTruncatedZeroEvents: a recording killed before its first event (a
// header-only file) must yield stats without panicking, keep stdout
// machine-readable, and route the truncation warning to stderr.
func TestStatsTruncatedZeroEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jtb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewStreamRecorder(f, trace.Header{
		Nodes: 4, Rounds: 3, Source: trace.SourceSim, Policy: trace.PolicyBarrier,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Flush(); err != nil {
		t.Fatal(err)
	}
	// No Close: the footer is missing, as after a mid-run kill.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr strings.Builder
	if err := statsCmd(path, &stdout, &stderr); err != nil {
		t.Fatalf("statsCmd on a truncated zero-event trace: %v", err)
	}
	if !strings.Contains(stdout.String(), "4 nodes") {
		t.Fatalf("stdout lacks the header line:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), "WARNING") {
		t.Fatalf("truncation warning leaked to stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "WARNING") || !strings.Contains(stderr.String(), "truncated") {
		t.Fatalf("stderr lacks the truncation warning:\n%s", stderr.String())
	}
}

// TestStatsHardCorruption: a file that is not a trace at all must be a hard
// error (non-zero exit), not a warning.
func TestStatsHardCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.jtb")
	if err := os.WriteFile(path, []byte("not a trace\x00\xff\xfe"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := statsCmd(path, &stdout, &stderr); err == nil {
		t.Fatalf("statsCmd accepted garbage; stdout:\n%s", stdout.String())
	}
}

// recordChurnRun records a micro async JWINS run with stragglers and churn
// into a fresh temporary directory and returns the trace's path.
func recordChurnRun(t *testing.T) string {
	t.Helper()
	const seed, rounds = 3, 6
	w, err := experiments.NewWorkload("cifar10", experiments.Micro, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec := experiments.RunSpec{
		Workload: w, Algo: experiments.AlgoSpec{Kind: experiments.AlgoJWINS},
		Rounds: rounds, Seed: seed, Async: true,
		Het:           simulation.Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.3},
		ChurnFraction: 0.25,
	}
	h, err := spec.TraceHeader()
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "run"+trace.BinaryExt)
	sr, err := trace.NewStreamRecorderFile(src, h)
	if err != nil {
		t.Fatal(err)
	}
	spec.Recorder = sr
	if _, err := experiments.Run(spec); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	return src
}

// writeTrace writes tr to path in the one trace encoding.
func writeTrace(t *testing.T, path string, tr *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplayCheck drives the replay subcommand end to end: a recorded async
// run with stragglers and churn must replay with parity, and a copy whose
// send ledger was tampered with must print the FAILED verdict in both modes,
// turning it into an error only under -check.
func TestReplayCheck(t *testing.T) {
	src := recordChurnRun(t)
	dir := filepath.Dir(src)

	var out strings.Builder
	if err := replay(src, true, &out); err != nil {
		t.Fatalf("replay -check of a fresh recording: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replay parity: OK") {
		t.Fatalf("replay -check printed no OK verdict:\n%s", out.String())
	}

	tr, err := trace.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if trace.ComputeStats(tr).ByKind[trace.KindLeave] == 0 {
		t.Fatal("the recorded run has no churn")
	}
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.KindSend {
			tr.Events[i].Bytes++
			break
		}
	}
	bad := filepath.Join(dir, "tampered"+trace.BinaryExt)
	writeTrace(t, bad, tr)
	for _, check := range []bool{true, false} {
		out.Reset()
		err := replay(bad, check, &out)
		if check && err == nil {
			t.Fatalf("replay -check accepted a tampered send ledger:\n%s", out.String())
		}
		if !check && err != nil {
			t.Fatalf("replay without -check returned %v", err)
		}
		if !strings.Contains(out.String(), "replay parity: FAILED (") {
			t.Fatalf("replay (check=%v) printed no FAILED verdict:\n%s", check, out.String())
		}
	}
}

// TestDiffAndDump drives diff and dump on a real recording: a self-diff is
// in sync, a copy with one send removed is not, dump prints a header line
// and one line per event, and a truncated copy dumps its readable prefix
// with the warning on stderr only.
func TestDiffAndDump(t *testing.T) {
	src := recordChurnRun(t)
	dir := filepath.Dir(src)

	var out strings.Builder
	d, err := diffCmd(src, src, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !d.InSync() {
		t.Fatalf("self-diff out of sync: %+v\n%s", d, out.String())
	}
	if !strings.Contains(out.String(), "(0 only in A, 0 only in B)") ||
		!strings.Contains(out.String(), fmt.Sprintf("0/%d nodes diverge", d.Nodes)) {
		t.Fatalf("self-diff report:\n%s", out.String())
	}

	tr, err := trace.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	events := len(tr.Events)
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.KindSend {
			tr.Events = append(tr.Events[:i], tr.Events[i+1:]...)
			break
		}
	}
	less := filepath.Join(dir, "less"+trace.BinaryExt)
	writeTrace(t, less, tr)
	out.Reset()
	if d, err = diffCmd(src, less, &out); err != nil {
		t.Fatal(err)
	}
	if d.InSync() || d.OnlyA != 1 || d.OnlyB != 0 {
		t.Fatalf("diff against a copy missing one send: %+v\n%s", d, out.String())
	}

	lines := func(s string) []string { return strings.Split(strings.TrimSuffix(s, "\n"), "\n") }
	var stdout, stderr strings.Builder
	if err := dumpCmd(src, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got := lines(stdout.String())
	if len(got) != 1+events || !strings.HasPrefix(got[0], "# ") {
		t.Fatalf("dump printed %d lines for %d events; first: %q", len(got), events, got[0])
	}
	if stderr.Len() != 0 {
		t.Fatalf("clean recording produced a warning:\n%s", stderr.String())
	}

	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut"+trace.BinaryExt)
	if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := dumpCmd(cut, &stdout, &stderr); err != nil {
		t.Fatalf("dump of a truncated trace: %v", err)
	}
	if got := lines(stdout.String()); len(got) < 2 || len(got) >= 1+events {
		t.Fatalf("truncated dump printed %d lines of a %d-event trace", len(got), events)
	}
	if strings.Contains(stdout.String(), "WARNING") {
		t.Fatal("truncation warning leaked to stdout")
	}
	if !strings.Contains(stderr.String(), "WARNING") || !strings.Contains(stderr.String(), "truncated") {
		t.Fatalf("stderr lacks the truncation warning:\n%s", stderr.String())
	}
}

// TestTimeline256NodeRecording is the acceptance run for the timeline
// subcommand: record a real 256-node async run to disk, convert it, and
// check the output is valid Chrome trace-event JSON — every record carries
// the format's required keys (name/ph/ts/pid/tid; dur on complete events).
func TestTimeline256NodeRecording(t *testing.T) {
	if testing.Short() {
		t.Skip("records a 256-node engine run")
	}
	const (
		rounds = 4
		seed   = 42
	)
	w, err := experiments.ScaleWorkload(256, seed)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := experiments.BuildFleet(w, experiments.AlgoSpec{Kind: experiments.AlgoFull, Codec: codec.Raw32{}}, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Regular(w.Nodes, w.Degree, vec.NewRNG(seed^1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "run256"+trace.BinaryExt)
	sr, err := trace.NewStreamRecorderFile(src, trace.Header{
		Nodes: len(nodes), Rounds: rounds, Source: trace.SourceSim, Policy: trace.PolicyBarrier,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := &simulation.AsyncEngine{
		Nodes: nodes, Topology: topology.NewStatic(g), TestSet: w.Dataset,
		Config: simulation.AsyncConfig{
			Config: simulation.Config{Rounds: rounds, EvalEvery: rounds, EvalSample: 8},
			Het:    simulation.Heterogeneity{ComputeSpread: 0.3, Seed: seed},
			Record: sr,
		},
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "run256.json")
	var stdout, stderr strings.Builder
	if err := timelineCmd(src, dst, &stdout, &stderr); err != nil {
		t.Fatalf("timelineCmd: %v", err)
	}
	if stderr.Len() != 0 {
		t.Fatalf("clean recording produced a warning:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+dst) {
		t.Fatalf("stdout lacks the summary line:\n%s", stdout.String())
	}

	buf, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	// 256 nodes × 4 rounds: at minimum a train span and a wait span per
	// node-round, plus per-node metadata.
	if len(doc.TraceEvents) < 4*256 {
		t.Fatalf("only %d timeline records for a 256-node, %d-round run", len(doc.TraceEvents), rounds)
	}
	trains := 0
	for i, rec := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("record %d lacks required key %q: %v", i, key, rec)
			}
		}
		ph, _ := rec["ph"].(string)
		if ph == "X" {
			dur, ok := rec["dur"].(float64)
			if !ok && rec["dur"] != nil {
				t.Fatalf("record %d: dur is not a number: %v", i, rec)
			}
			if dur < 0 {
				t.Fatalf("record %d: negative dur: %v", i, rec)
			}
			if rec["name"] == "train" {
				trains++
			}
		}
	}
	if trains < 256*rounds {
		t.Fatalf("train spans = %d, want at least %d", trains, 256*rounds)
	}
}
