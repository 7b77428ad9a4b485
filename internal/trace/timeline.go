// timeline.go converts an event trace into Chrome trace-event JSON — the
// format Perfetto (ui.perfetto.dev) and chrome://tracing load natively — so a
// recorded run becomes a browsable Gantt chart: one track per node, train and
// barrier-wait spans, churn/deadline/drop markers, epoch boundaries, and a
// cumulative wire-bytes counter series.
//
// The conversion streams: per-event output is emitted as events are read, and
// held state is O(nodes) (one span start and one wait start per node), so a
// 1024-node ext-scale trace converts in constant memory like stats does.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Timeline span/marker names as they appear in Perfetto.
const (
	timelineTrain   = "train"
	timelineWait    = "wait"
	timelineBytes   = "wire bytes"
	timelineEpoch   = "epoch"
	timelineDrop    = "drop"
	timelineProcess = "jwins"
)

// tlEvent is one Chrome trace-event record. The format's required keys for
// every phase are name/ph/ts/pid/tid; complete events ("X") additionally
// carry dur, counters ("C") and instants ("i") their args/scope. Timestamps
// are microseconds.
type tlEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"` // set on every "X" record, even zero-length ones
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`    // instant scope: t(hread) or g(lobal)
	Args map[string]any `json:"args,omitempty"` // never reused: marshaled before the next event
}

const timelinePid = 1

func usec(t float64) int64 { return int64(t * 1e6) }

// durp boxes a span duration, clamping negatives: a trace file is outside
// input, and its times need not line up with the spans drawn from them.
func durp(d int64) *int64 {
	if d < 0 {
		d = 0
	}
	return &d
}

// WriteTimeline streams the trace read from sr as Chrome trace-event JSON
// into w and returns the number of timeline records written (metadata
// included). A truncated recording converts like stats computes: the output
// covers the readable prefix, the JSON is closed and valid, and the
// ErrTruncated is returned for the caller to warn about.
func WriteTimeline(w io.Writer, sr *StreamReader) (int, error) {
	h := sr.Header()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return 0, err
	}
	written := 0
	emit := func(ev tlEvent) error {
		buf, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if written > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		written++
		return nil
	}

	// Track naming: pid 1 is the run; tid n is node n, tid h.Nodes the
	// run-global track (epochs, byte counter).
	globalTid := h.Nodes
	if err := emit(tlEvent{Name: "process_name", Ph: "M", Pid: timelinePid, Tid: globalTid,
		Args: map[string]any{"name": fmt.Sprintf("%s %s (%d nodes, %s policy)", timelineProcess, h.Source, h.Nodes, h.Policy)}}); err != nil {
		return written, err
	}
	if err := emit(tlEvent{Name: "thread_name", Ph: "M", Pid: timelinePid, Tid: globalTid,
		Args: map[string]any{"name": "run"}}); err != nil {
		return written, err
	}
	for i := 0; i < h.Nodes; i++ {
		if err := emit(tlEvent{Name: "thread_name", Ph: "M", Pid: timelinePid, Tid: i,
			Args: map[string]any{"name": fmt.Sprintf("node %d", i)}}); err != nil {
			return written, err
		}
	}

	// Per-node span state: trainStart is when the node's current training
	// phase began (run start, or its last aggregate); waitStart is its last
	// train-done while a policy wait is open, -1 otherwise.
	trainStart := make([]float64, h.Nodes)
	waitStart := make([]float64, h.Nodes)
	for i := range waitStart {
		waitStart[i] = -1
	}
	var cumBytes int64

	var readErr error
	for {
		ev, err := sr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				readErr = err
			}
			break
		}
		if ev.Node < 0 || ev.Node >= h.Nodes {
			continue // defensive; Validate normally rejects these upstream
		}
		ts := usec(ev.Time)
		var out tlEvent
		switch ev.Kind {
		case KindTrainDone:
			start := usec(trainStart[ev.Node])
			out = tlEvent{Name: timelineTrain, Ph: "X", Ts: start, Dur: durp(ts - start),
				Pid: timelinePid, Tid: ev.Node, Args: map[string]any{"iter": ev.Iter}}
			waitStart[ev.Node] = ev.Time
		case KindAggregate:
			if waitStart[ev.Node] >= 0 {
				start := usec(waitStart[ev.Node])
				out = tlEvent{Name: timelineWait, Ph: "X", Ts: start, Dur: durp(ts - start),
					Pid: timelinePid, Tid: ev.Node,
					Args: map[string]any{"iter": ev.Iter, "merged": ev.LagN, "lag_max": ev.LagMax}}
				waitStart[ev.Node] = -1
			}
			trainStart[ev.Node] = ev.Time
		case KindSend:
			cumBytes += int64(ev.Bytes)
			out = tlEvent{Name: timelineBytes, Ph: "C", Ts: ts, Pid: timelinePid, Tid: globalTid,
				Args: map[string]any{"bytes": cumBytes}}
		case KindArrival:
			// Deliveries are implicit in the wait spans; only losses are worth
			// a marker.
			if ev.Dropped {
				out = tlEvent{Name: timelineDrop, Ph: "i", Ts: ts, Pid: timelinePid, Tid: ev.Node,
					S: "t", Args: map[string]any{"from": ev.Peer, "iter": ev.Iter}}
			}
		case KindLeave, KindJoin, KindDeadline:
			out = tlEvent{Name: ev.Kind.String(), Ph: "i", Ts: ts, Pid: timelinePid, Tid: ev.Node,
				S: "t", Args: map[string]any{"iter": ev.Iter}}
			if ev.Kind == KindLeave || ev.Kind == KindJoin {
				// Churn resets the node's span state: a leaver's open wait
				// will never close, a joiner's next train starts here.
				trainStart[ev.Node] = ev.Time
				waitStart[ev.Node] = -1
			}
		case KindEpoch:
			out = tlEvent{Name: timelineEpoch, Ph: "i", Ts: ts, Pid: timelinePid, Tid: globalTid,
				S: "g", Args: map[string]any{"epoch": ev.Iter}}
		}
		if out.Ph == "" {
			continue
		}
		if err := emit(out); err != nil {
			return written, err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return written, err
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, readErr
}

// WriteTimelineFile converts the trace at src into Chrome trace-event JSON at
// dst. Truncated sources still produce a valid timeline of the readable
// prefix; the ErrTruncated is returned alongside the record count.
func WriteTimelineFile(dst, src string) (int, error) {
	f, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sr, err := NewStreamReader(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", src, err)
	}
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, werr := WriteTimeline(out, sr)
	if cerr := out.Close(); werr == nil && cerr != nil {
		werr = cerr
	}
	return n, werr
}
