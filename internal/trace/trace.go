// Package trace defines the versioned event-trace format the simulated async
// scheduler records and replays: a header describing the run, followed by
// the executed schedule as a time-ordered event sequence (train-done, send,
// arrival, aggregate, leave, join, epoch) with iteration numbers, per-send
// byte breakdowns, per-aggregation staleness lags, and topology-rotation
// marks.
//
// One encoding carries the data: the compact binary .jtb layout (a JSON
// header, then varint-packed events), ending with an explicit footer that
// carries the event count so truncation is always detectable. Readers
// validate strictly and report typed errors (ErrNotTrace, ErrVersion,
// ErrTruncated, ErrCorrupt). `jwins-trace dump` prints the greppable
// one-line-per-event view.
//
// A recorded trace is a complete, authoritative schedule: feeding it back
// into the async engine (see Replayer and simulation.AsyncConfig.Replay)
// reproduces the run event for event.
package trace

import (
	"errors"
	"fmt"
	"math"
)

// FormatName identifies trace files in the header.
const FormatName = "jwins-trace"

// FormatVersion is the current trace format version. Readers reject other
// versions with ErrVersion rather than guessing.
const FormatVersion = 1

// Typed reader errors. Wrapped errors add positional detail; match with
// errors.Is.
var (
	// ErrNotTrace marks input that is not a trace file at all.
	ErrNotTrace = errors.New("trace: not a trace file")
	// ErrVersion marks a trace written by an unsupported format version.
	ErrVersion = errors.New("trace: unsupported format version")
	// ErrTruncated marks a trace whose footer is missing or short — the file
	// was cut off mid-write.
	ErrTruncated = errors.New("trace: truncated")
	// ErrCorrupt marks structurally invalid content: unknown event kinds,
	// out-of-range nodes, time regressions, or a footer count mismatch.
	ErrCorrupt = errors.New("trace: corrupt")
)

// Kind enumerates trace event types.
type Kind uint8

// Event kinds. KindTrainDone, KindArrival, KindLeave, KindJoin, and
// KindEpoch are the scheduler's authoritative events (a Replayer feeds them
// back as the schedule); KindSend and KindAggregate are derived observations
// used for byte accounting and staleness analysis.
const (
	KindTrainDone Kind = iota + 1
	KindSend
	KindArrival
	KindAggregate
	KindLeave
	KindJoin
	// KindEpoch marks a topology rotation: the run entered epoch Iter at
	// Time. Node is 0 by convention (the event is global), Peer -1.
	KindEpoch
	// KindDeadline marks a straggler-dropping deadline firing for Node's
	// iteration Iter (the deadline aggregation policy). Part of the
	// authoritative schedule: a replay consumes recorded deadline times
	// instead of re-deriving them from hardware profiles.
	KindDeadline
	kindEnd // exclusive upper bound for validation
)

var kindNames = map[Kind]string{
	KindTrainDone: "train-done",
	KindSend:      "send",
	KindArrival:   "arrival",
	KindAggregate: "aggregate",
	KindLeave:     "leave",
	KindJoin:      "join",
	KindEpoch:     "epoch",
	KindDeadline:  "deadline",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a known event kind.
func (k Kind) Valid() bool { return k >= KindTrainDone && k < kindEnd }

// Header describes the run a trace was captured from. It travels as JSON
// inside the binary layout.
type Header struct {
	// Format is FormatName; readers reject anything else.
	Format string `json:"format"`
	// Version is FormatVersion at write time.
	Version int `json:"version"`
	// Nodes is the fleet size; every event's Node/Peer must be below it.
	Nodes int `json:"nodes"`
	// Rounds is the per-node iteration budget of the recorded run.
	Rounds int `json:"rounds"`
	// Source names what produced the trace: "sim" for simulated schedules
	// (timestamps are simulated seconds). Readers accept any value, so
	// traces from other producers still parse and replay.
	Source string `json:"source"`
	// Policy is the aggregation policy: "barrier", "gossip", "bounded"
	// (bounded staleness), or "deadline" (straggler-dropping barrier).
	// Bounded/deadline parameters travel in Meta (policy_k, policy_tau,
	// policy_adaptive, policy_deadline_factor) so replays can verify them.
	Policy string `json:"policy"`
	// Meta carries free-form run parameters (dataset, scale, algo, seed...)
	// so tools can rebuild the fleet for replay without extra flags.
	Meta map[string]string `json:"meta,omitempty"`
}

// SourceSim is the Header.Source of a simulated schedule.
const SourceSim = "sim"

// Aggregation policies.
const (
	PolicyBarrier  = "barrier"
	PolicyGossip   = "gossip"
	PolicyBounded  = "bounded"
	PolicyDeadline = "deadline"
)

// Event is one entry of the executed schedule. Field use by kind:
//
//	train-done  Node trained iteration Iter (Time = compute finished)
//	send        Node sent its Iter payload to Peer (bytes = payload+framing,
//	            split into model and metadata; Dropped marks a send whose
//	            delivery was lost — the sender still pays)
//	arrival     Node received Peer's Iter payload (or its drop notice)
//	aggregate   Node merged its Iter neighborhood; LagMax/LagMean/LagN
//	            summarize the iteration lag (staleness) of merged payloads
//	leave/join  Node left or rejoined the run (churn)
//	epoch       the communication topology rotated into epoch Iter
//	            (Node is 0 by convention: the change is global)
//	deadline    Node's straggler-dropping deadline for iteration Iter fired
type Event struct {
	// Time is seconds since run start (simulated seconds for a "sim"
	// trace). Within a trace, times are non-decreasing.
	Time float64
	Kind Kind
	// Node is the subject: trainer, sender, receiver, aggregator, or churner.
	Node int
	// Peer is the counterpart (receiver for send, sender for arrival), or -1
	// when not applicable.
	Peer int
	// Iter is the iteration the event belongs to.
	Iter int
	// Dropped marks lost deliveries (send and arrival only).
	Dropped bool
	// Bytes/ModelBytes/MetaBytes are the send's wire cost (send only).
	Bytes      int
	ModelBytes int
	MetaBytes  int
	// LagMax/LagMean/LagN summarize staleness at an aggregation: per merged
	// payload, lag = aggregator's iteration - payload's iteration, clamped at
	// zero (a neighbor running ahead is not stale). LagN counts payloads.
	// LagMean travels on aggregate events only.
	LagMax  int
	LagMean float64
	LagN    int
}

// Trace is a fully-read trace: header plus the complete event sequence.
type Trace struct {
	Header Header
	Events []Event
}

// Duration returns the last event's timestamp (0 for an empty trace).
func (t *Trace) Duration() float64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Time
}

// Validate checks header sanity and every event against the header: known
// kinds, in-range node/peer ids, non-negative iterations and byte counts,
// and non-decreasing timestamps. Violations return ErrCorrupt (wrapped with
// the offending event index).
func Validate(h Header, events []Event) error {
	if err := validateHeader(h); err != nil {
		return err
	}
	prev := math.Inf(-1)
	for i := range events {
		if err := validateEvent(h, i, &events[i], prev); err != nil {
			return err
		}
		prev = events[i].Time
	}
	return nil
}

// validateHeader checks the header alone (format, version, node count).
func validateHeader(h Header) error {
	if h.Format != FormatName {
		return fmt.Errorf("%w: header format %q", ErrNotTrace, h.Format)
	}
	if h.Version != FormatVersion {
		return fmt.Errorf("%w: %d (reader supports %d)", ErrVersion, h.Version, FormatVersion)
	}
	if h.Nodes <= 0 {
		return fmt.Errorf("%w: header declares %d nodes", ErrCorrupt, h.Nodes)
	}
	return nil
}

// validateEvent checks one event (index i, for error messages) against the
// header and the previous event's timestamp. Streaming readers and writers
// share it with Validate so incremental and whole-trace validation agree.
func validateEvent(h Header, i int, ev *Event, prev float64) error {
	if !ev.Kind.Valid() {
		return fmt.Errorf("%w: event %d has unknown kind %d", ErrCorrupt, i, uint8(ev.Kind))
	}
	if math.IsNaN(ev.Time) || ev.Time < prev {
		return fmt.Errorf("%w: event %d time %v regresses below %v", ErrCorrupt, i, ev.Time, prev)
	}
	if ev.Node < 0 || ev.Node >= h.Nodes {
		return fmt.Errorf("%w: event %d node %d out of range [0,%d)", ErrCorrupt, i, ev.Node, h.Nodes)
	}
	switch ev.Kind {
	case KindSend, KindArrival:
		if ev.Peer < 0 || ev.Peer >= h.Nodes {
			return fmt.Errorf("%w: event %d peer %d out of range [0,%d)", ErrCorrupt, i, ev.Peer, h.Nodes)
		}
	default:
		if ev.Peer != -1 {
			return fmt.Errorf("%w: event %d (%v) has peer %d, want -1", ErrCorrupt, i, ev.Kind, ev.Peer)
		}
	}
	if ev.Iter < 0 {
		return fmt.Errorf("%w: event %d iteration %d negative", ErrCorrupt, i, ev.Iter)
	}
	if ev.Bytes < 0 || ev.ModelBytes < 0 || ev.MetaBytes < 0 || ev.LagMax < 0 || ev.LagN < 0 {
		return fmt.Errorf("%w: event %d has negative counters", ErrCorrupt, i)
	}
	return nil
}

// Sink consumes trace events as a run executes: the recorder hook of the
// async engine (simulation.AsyncConfig.Record). Recorder retains the full trace in memory; StreamRecorder writes it out
// incrementally with bounded buffers, the only option that scales to
// 1024-node schedules.
type Sink interface {
	Record(Event)
}

// RoundsSetter is implemented by sinks that can adjust the header's
// advertised round budget after recording started: a run stopped early (at
// target accuracy) holds only the executed prefix, and replaying it must not
// chase rounds that were never scheduled.
type RoundsSetter interface {
	SetRounds(rounds int)
}

// Recorder accumulates a trace in memory as a run executes. The zero-cost
// hook for the async engine (simulation.AsyncConfig.Record); write the
// result out with Write.
type Recorder struct {
	t Trace
}

var (
	_ Sink         = (*Recorder)(nil)
	_ RoundsSetter = (*Recorder)(nil)
)

// NewRecorder starts a recorder. Format and Version are filled in; the caller
// provides the run description.
func NewRecorder(h Header) *Recorder {
	h.Format = FormatName
	h.Version = FormatVersion
	return &Recorder{t: Trace{Header: h}}
}

// Record appends one event.
func (r *Recorder) Record(ev Event) {
	r.t.Events = append(r.t.Events, ev)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.t.Events) }

// SetRounds implements RoundsSetter.
func (r *Recorder) SetRounds(rounds int) { r.t.Header.Rounds = rounds }

// Trace returns the recorded trace. The recorder retains ownership; callers
// must not mutate it while recording continues.
func (r *Recorder) Trace() *Trace { return &r.t }
