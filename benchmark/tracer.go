package main

import (
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// spanKind names a layer boundary the wrappers time.
type spanKind int

const (
	spanRun spanKind = iota // the engine's Run(); parent of everything
	spanLocalTrain
	spanShare
	spanAggregate
	spanTrainBatch
	spanEvalBatch
	spanCopyParams
	spanSetParams
	spanModelBuild
	spanTraceRecord
	numSpans
)

var spanNames = [numSpans]string{
	"simulation.run", "core.local_train", "core.share", "core.aggregate",
	"nn.train_batch", "nn.eval_batch", "nn.copy_params", "nn.set_params",
	"nn.build", "trace.record",
}

// tracer accumulates spans in memory, keyed by (span, parent span). It is
// not safe for concurrent use: the traced run sets Parallelism 1, under which
// both engines run every node call inline on the calling goroutine.
type tracer struct {
	stack [8]spanKind
	depth int
	busy  [numSpans][numSpans]time.Duration // [span][parent]
	calls [numSpans][numSpans]int64

	// Counts taken at the same boundaries as the spans.
	shareBytes int64 // Σ payload bytes returned by Share
	aggMsgs    int64 // Σ payloads handed to Aggregate
	// lastPayload keeps each node's latest payload for the probes.
	lastPayload map[int][]byte
}

func newTracer() *tracer { return &tracer{lastPayload: map[int][]byte{}} }

// begin opens the run's root span, dropping whatever set-up accumulated
// (BuildFleet builds its template model through the wrapped factory).
func (t *tracer) begin() time.Time {
	t.busy, t.calls = [numSpans][numSpans]time.Duration{}, [numSpans][numSpans]int64{}
	return t.enter(spanRun)
}

func (t *tracer) enter(k spanKind) time.Time {
	t.stack[t.depth] = k
	t.depth++
	return time.Now()
}

func (t *tracer) exit(start time.Time) {
	d := time.Since(start)
	t.depth--
	k, parent := t.stack[t.depth], spanRun
	if t.depth > 0 {
		parent = t.stack[t.depth-1]
	}
	t.busy[k][parent] += d
	t.calls[k][parent]++
}

// total is a span's busy time and call count over all parents.
func (t *tracer) total(k spanKind) (time.Duration, int64) {
	var d time.Duration
	var n int64
	for p := range t.busy[k] {
		d += t.busy[k][p]
		n += t.calls[k][p]
	}
	return d, n
}

// self is a span's busy time minus the part its child spans cover.
func (t *tracer) self(k spanKind) time.Duration {
	d, _ := t.total(k)
	for c := spanKind(0); c < numSpans; c++ {
		if c != k {
			d -= t.busy[c][k]
		}
	}
	return d
}

// spanRecord is one accumulated span as written with the results.
type spanRecord struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	BusyNs int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
}

func (t *tracer) records() []spanRecord {
	var out []spanRecord
	for k := range t.busy {
		for p := range t.busy[k] {
			if t.calls[k][p] > 0 {
				out = append(out, spanRecord{spanNames[k], spanNames[p], int64(t.busy[k][p]), t.calls[k][p]})
			}
		}
	}
	return out
}

// tracedNode times the three node phases. It forwards the two optional
// interfaces the engines probe for, so the schedule and the decode cache
// behave as with bare nodes.
type tracedNode struct {
	core.Node
	t *tracer
}

func (t *tracer) node(n core.Node) core.Node { return &tracedNode{n, t} }

func (n *tracedNode) LocalTrain() float64 {
	defer n.t.exit(n.t.enter(spanLocalTrain))
	return n.Node.LocalTrain()
}

func (n *tracedNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	start := n.t.enter(spanShare)
	p, bd, err := n.Node.Share(round)
	n.t.exit(start)
	n.t.shareBytes += int64(len(p))
	n.t.lastPayload[n.ID()] = p
	return p, bd, err
}

func (n *tracedNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	n.t.aggMsgs += int64(len(msgs))
	defer n.t.exit(n.t.enter(spanAggregate))
	return n.Node.Aggregate(round, w, msgs)
}

func (n *tracedNode) LocalStepCount() int {
	if s, ok := n.Node.(interface{ LocalStepCount() int }); ok {
		return s.LocalStepCount()
	}
	return 1
}

func (n *tracedNode) SetDecodeCache(c *core.DecodeCache) {
	if u, ok := n.Node.(core.DecodeCacheUser); ok {
		u.SetDecodeCache(c)
	}
}

// tracedModel times the four model operations the engines and nodes use.
type tracedModel struct {
	nn.Trainable
	t *tracer
}

// model builds a model through the workload's factory, timing the build, and
// wraps it.
func (t *tracer) model(build func(*vec.RNG) nn.Trainable, r *vec.RNG) nn.Trainable {
	start := t.enter(spanModelBuild)
	m := build(r)
	t.exit(start)
	return &tracedModel{m, t}
}

func (m *tracedModel) TrainBatch(x *nn.Tensor, y []float64, lr float64) float64 {
	defer m.t.exit(m.t.enter(spanTrainBatch))
	return m.Trainable.TrainBatch(x, y, lr)
}

func (m *tracedModel) EvalBatch(x *nn.Tensor, y []float64) (float64, int, int) {
	defer m.t.exit(m.t.enter(spanEvalBatch))
	return m.Trainable.EvalBatch(x, y)
}

func (m *tracedModel) CopyParams(dst []float64) {
	defer m.t.exit(m.t.enter(spanCopyParams))
	m.Trainable.CopyParams(dst)
}

func (m *tracedModel) SetParams(src []float64) {
	defer m.t.exit(m.t.enter(spanSetParams))
	m.Trainable.SetParams(src)
}

// tracedSink times trace recording.
type tracedSink struct {
	inner trace.Sink
	t     *tracer
}

func (t *tracer) sink(s trace.Sink) trace.Sink { return &tracedSink{s, t} }

func (s *tracedSink) Record(ev trace.Event) {
	start := s.t.enter(spanTraceRecord)
	s.inner.Record(ev)
	s.t.exit(start)
}
