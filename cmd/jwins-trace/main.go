// Command jwins-trace inspects, compares, and replays event traces recorded
// by the simulator (jwins-train -trace-out).
//
//	jwins-trace stats run.jtb             # counts, byte ledger, staleness
//	jwins-trace diff a.jtb b.jtb          # per-event time error, ordering
//	jwins-trace dump run.jtb              # one text line per event
//	jwins-trace timeline run.jtb run.json # Chrome trace-event JSON (Perfetto)
//	jwins-trace replay run.jtb            # re-execute through the simulator
//	jwins-trace replay -check run.jtb     # exit non-zero on parity failure
//
// dump is the greppable view of a binary trace: a header line, then per
// event its time, kind, node, peer, iteration, bytes and lags (max, mean,
// count), with "dropped" appended to lost deliveries.
//
// timeline converts a recording into the Chrome trace-event format: load the
// output at https://ui.perfetto.dev (or chrome://tracing) for a browsable
// Gantt of per-node train/wait spans, churn and deadline markers, epoch
// boundaries, and the cumulative wire-byte counter. Truncated recordings
// convert like stats computes: the readable prefix becomes a valid timeline
// and a warning lands on stderr.
//
// replay rebuilds the fleet from the trace header's metadata (dataset,
// scale, algo, seed), re-executes the recorded schedule through the async
// engine, and reports parity: emitted rows, the byte ledger against the
// trace's send ledger, and the event diff, ending in a "replay parity: OK"
// or "replay parity: FAILED (...)" line. -check makes a failure exit
// non-zero.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jwins-trace:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: jwins-trace stats <file> | diff <a> <b> | dump <file> | timeline <in> <out.json> | replay [-check] <file>")
}

func run() error {
	if len(os.Args) < 2 {
		return usage()
	}
	switch os.Args[1] {
	case "stats":
		if len(os.Args) != 3 {
			return usage()
		}
		return statsCmd(os.Args[2], os.Stdout, os.Stderr)

	case "diff":
		if len(os.Args) != 4 {
			return usage()
		}
		_, err := diffCmd(os.Args[2], os.Args[3], os.Stdout)
		return err

	case "dump":
		if len(os.Args) != 3 {
			return usage()
		}
		return dumpCmd(os.Args[2], os.Stdout, os.Stderr)

	case "timeline":
		if len(os.Args) != 4 {
			return usage()
		}
		return timelineCmd(os.Args[2], os.Args[3], os.Stdout, os.Stderr)

	case "replay":
		fs := flag.NewFlagSet("replay", flag.ContinueOnError)
		check := fs.Bool("check", false, "exit non-zero unless the replay matches the trace exactly")
		if err := fs.Parse(os.Args[2:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return usage()
		}
		return replay(fs.Arg(0), *check, os.Stdout)

	default:
		return usage()
	}
}

// statsCmd implements the stats subcommand. The file is folded event by
// event, never held as a slice (what remains is O(nodes) plus one float per
// aggregation for the exact staleness P95) — and a recording cut off
// mid-write (a killed run) still yields the stats of its readable prefix,
// with a warning on stderr so piped stdout stays machine-readable. Hard
// corruption (an unreadable header or garbled event) is an error.
func statsCmd(path string, stdout, stderr io.Writer) error {
	h, stats, err := trace.ReadStatsFile(path)
	if err != nil && !errors.Is(err, trace.ErrTruncated) {
		return err
	}
	fmt.Fprintf(stdout, "%s: %s trace, %d nodes, %d rounds, %s policy\n",
		path, h.Source, h.Nodes, h.Rounds, h.Policy)
	if err != nil {
		fmt.Fprintf(stderr, "WARNING: trace is truncated (%v); stats cover the %d readable events\n", err, stats.Events)
	}
	fmt.Fprint(stdout, stats)
	return nil
}

// diffCmd implements the diff subcommand: both traces are read whole and
// compared by Compare, whose report goes to stdout.
func diffCmd(pathA, pathB string, stdout io.Writer) (trace.Diff, error) {
	a, err := trace.ReadFile(pathA)
	if err != nil {
		return trace.Diff{}, err
	}
	b, err := trace.ReadFile(pathB)
	if err != nil {
		return trace.Diff{}, err
	}
	d := trace.Compare(a, b)
	fmt.Fprintf(stdout, "A = %s (%s), B = %s (%s)\n", pathA, a.Header.Source, pathB, b.Header.Source)
	fmt.Fprint(stdout, d)
	return d, nil
}

// dumpCmd implements the dump subcommand, streaming one line per event. A
// recording cut off mid-write dumps its readable prefix, with the warning on
// stderr as stats does; any other read error is a hard one.
func dumpCmd(path string, stdout, stderr io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := trace.NewStreamReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	h := sr.Header()
	bw := bufio.NewWriter(stdout)
	fmt.Fprintf(bw, "# %s: %s trace, %d nodes, %d rounds, %s policy; columns: time kind node peer iter bytes lag_max lag_mean lag_n\n",
		path, h.Source, h.Nodes, h.Rounds, h.Policy)
	var readErr error
	for {
		ev, err := sr.Next()
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		fmt.Fprintf(bw, "%.9f %s %d %d %d %d %d %.3f %d", ev.Time, ev.Kind, ev.Node, ev.Peer, ev.Iter,
			ev.Bytes, ev.LagMax, ev.LagMean, ev.LagN)
		if ev.Dropped {
			bw.WriteString(" dropped")
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if readErr != nil && !errors.Is(readErr, trace.ErrTruncated) {
		return fmt.Errorf("%s: %w", path, readErr)
	}
	if readErr != nil {
		fmt.Fprintf(stderr, "WARNING: trace is truncated (%v); dump covers the %d readable events\n", readErr, sr.Count())
	}
	return nil
}

// timelineCmd implements the timeline subcommand: src is converted to
// Chrome trace-event JSON at dst. Truncation degrades gracefully — the
// readable prefix becomes a complete, loadable timeline — with the warning
// on stderr so scripted stdout stays clean.
func timelineCmd(src, dst string, stdout, stderr io.Writer) error {
	n, err := trace.WriteTimelineFile(dst, src)
	if err != nil && !errors.Is(err, trace.ErrTruncated) {
		return err
	}
	if err != nil {
		fmt.Fprintf(stderr, "WARNING: trace is truncated (%v); timeline covers the readable prefix\n", err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d timeline records); load it at https://ui.perfetto.dev\n", dst, n)
	return nil
}

// replay implements the replay subcommand. The verdict line is printed in
// both modes; only -check turns a divergence into an error (a non-zero exit).
func replay(path string, check bool, stdout io.Writer) error {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	stats := trace.ComputeStats(tr)
	res, replayed, err := experiments.ReplayTrace(tr)
	if err != nil {
		return err
	}
	d := trace.Compare(replayed, tr)

	fmt.Fprintf(stdout, "replayed %s (%s trace) through the simulator:\n", path, tr.Header.Source)
	fmt.Fprintf(stdout, "  rows: %d/%d, final accuracy %.1f%%\n", len(res.Rounds), tr.Header.Rounds, res.FinalAccuracy*100)
	fmt.Fprintf(stdout, "  byte ledger: replay %d vs trace %d (delta %d)\n",
		res.TotalBytes, stats.TotalBytes, res.TotalBytes-stats.TotalBytes)
	fmt.Fprintf(stdout, "  schedule: %d matched, %d unmatched, %d/%d nodes reordered, time err max %.6fs\n",
		d.Matched, d.OnlyA+d.OnlyB, d.OrderMismatches, d.Nodes, d.TimeErrMax)

	if d.InSync() && len(res.Rounds) == tr.Header.Rounds && res.TotalBytes == stats.TotalBytes {
		fmt.Fprintln(stdout, "replay parity: OK")
		return nil
	}
	detail := fmt.Sprintf("rows %d/%d, byte delta %d, unmatched %d, reordered nodes %d",
		len(res.Rounds), tr.Header.Rounds, res.TotalBytes-stats.TotalBytes, d.OnlyA+d.OnlyB, d.OrderMismatches)
	fmt.Fprintf(stdout, "replay parity: FAILED (%s)\n", detail)
	if check {
		return fmt.Errorf("replay parity check failed (%s)", detail)
	}
	return nil
}
