// record.go bridges the async scheduler and the trace subsystem: it maps
// processed scheduler events to trace records (the authoritative schedule a
// Replayer later feeds back), builds the derived send/aggregate records that
// carry byte breakdowns and staleness lags, and accumulates the staleness
// distribution reported in RoundMetrics/Result rows.
package simulation

import (
	"repro/internal/codec"
	"repro/internal/trace"
)

// schedTraceEvent converts a popped scheduler event to its trace record.
// ok is false for kinds that have no trace representation.
func schedTraceEvent(ev *Event) (trace.Event, bool) {
	out := trace.Event{Time: ev.Time, Node: ev.Node, Peer: -1, Iter: ev.Iter}
	switch ev.Kind {
	case EventTrainDone:
		out.Kind = trace.KindTrainDone
	case EventArrival:
		out.Kind = trace.KindArrival
		out.Peer = ev.From
		out.Dropped = ev.Dropped
	case EventLeave:
		out.Kind = trace.KindLeave
		out.Iter = 0
	case EventJoin:
		out.Kind = trace.KindJoin
		out.Iter = 0
	case EventEpoch:
		out.Kind = trace.KindEpoch
		out.Node = 0 // global event; trace validation needs an in-range node
	case EventDeadline:
		out.Kind = trace.KindDeadline
	default:
		return trace.Event{}, false
	}
	return out, true
}

// sendTraceEvent builds the derived send record, mirroring the byte ledger's
// accounting (payload + framing, metadata charged for the frame header).
func sendTraceEvent(now float64, from, to, iter, payloadLen int, bd codec.ByteBreakdown, dropped bool) trace.Event {
	return trace.Event{
		Time: now, Kind: trace.KindSend, Node: from, Peer: to, Iter: iter, Dropped: dropped,
		Bytes:      payloadLen + frameOverhead,
		ModelBytes: bd.Model,
		MetaBytes:  bd.Meta + frameOverhead,
	}
}

// staleTracker accumulates per-aggregation payload iteration lags, bucketed
// by iteration for row emission and pooled for the run summary.
type staleTracker struct {
	perIter [][]float64
	all     []float64
}

func newStaleTracker(rounds int) *staleTracker {
	return &staleTracker{perIter: make([][]float64, rounds)}
}

// add records the lags of one aggregation at the given iteration.
func (s *staleTracker) add(iter int, lags []float64) {
	if iter >= 0 && iter < len(s.perIter) {
		s.perIter[iter] = append(s.perIter[iter], lags...)
	}
	s.all = append(s.all, lags...)
}

// rowStats summarizes one iteration's samples (zeros when empty: nothing
// stale was merged).
func (s *staleTracker) rowStats(iter int) (mean, max, p95 float64) {
	if iter < 0 || iter >= len(s.perIter) {
		return 0, 0, 0
	}
	return summarizeLags(s.perIter[iter])
}

// runStats summarizes the whole run.
func (s *staleTracker) runStats() (mean, max, p95 float64) {
	return summarizeLags(s.all)
}

// policyTracker accumulates per-aggregation effective-neighbor and late-drop
// counts: merged is how many payloads an aggregation actually mixed, expected
// its live-neighbor count, and late how many live neighbors had not delivered
// the current iteration when it fired (always 0 under the full barrier;
// the deadline policy's straggler drops land here). Bucketed by iteration for
// row emission and totaled for the run summary.
type policyTracker struct {
	merged, expected, late, aggs     []int64
	mergedT, expectedT, lateT, aggsT int64
}

func newPolicyTracker(rounds int) *policyTracker {
	return &policyTracker{
		merged:   make([]int64, rounds),
		expected: make([]int64, rounds),
		late:     make([]int64, rounds),
		aggs:     make([]int64, rounds),
	}
}

// add records one aggregation at the given iteration.
func (p *policyTracker) add(iter, merged, expected, late int) {
	if iter >= 0 && iter < len(p.aggs) {
		p.merged[iter] += int64(merged)
		p.expected[iter] += int64(expected)
		p.late[iter] += int64(late)
		p.aggs[iter]++
	}
	p.mergedT += int64(merged)
	p.expectedT += int64(expected)
	p.lateT += int64(late)
	p.aggsT++
}

// rowStats summarizes one iteration: mean merged payloads per aggregation and
// the late fraction of expected payloads (zeros when nothing aggregated).
func (p *policyTracker) rowStats(iter int) (eff, dropRate float64) {
	if iter < 0 || iter >= len(p.aggs) {
		return 0, 0
	}
	return policyStats(p.merged[iter], p.expected[iter], p.late[iter], p.aggs[iter])
}

// runStats summarizes the whole run; late is the total straggler-drop count.
func (p *policyTracker) runStats() (eff, dropRate float64, late int64) {
	eff, dropRate = policyStats(p.mergedT, p.expectedT, p.lateT, p.aggsT)
	return eff, dropRate, p.lateT
}

func policyStats(merged, expected, late, aggs int64) (eff, dropRate float64) {
	if aggs > 0 {
		eff = float64(merged) / float64(aggs)
	}
	if expected > 0 {
		dropRate = float64(late) / float64(expected)
	}
	return eff, dropRate
}

func summarizeLags(lags []float64) (mean, max, p95 float64) {
	if len(lags) == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, l := range lags {
		sum += l
		if l > max {
			max = l
		}
	}
	return sum / float64(len(lags)), max, trace.Quantile(lags, 0.95)
}
