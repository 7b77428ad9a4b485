// stats.go summarizes and compares traces: per-kind counts, the byte ledger,
// the staleness distribution, and — for sim-vs-real validation — a keyed diff
// reporting per-event time error and ordering agreement.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats summarizes one trace.
type Stats struct {
	Events int
	ByKind map[Kind]int
	// Duration is the last event's timestamp.
	Duration float64
	// NodesSeen counts distinct subject nodes.
	NodesSeen int
	// Byte ledger accumulated over send events (drops included: senders pay).
	TotalBytes, ModelBytes, MetaBytes int64
	// Drops counts sends lost in flight.
	Drops int
	// StaleMean/StaleMax/StaleP95 summarize staleness over aggregations.
	// StaleMean is weighted by each aggregation's payload count (LagN), so
	// it equals the per-payload mean a Result reports for the same run;
	// StaleMax is the max of per-aggregation maxima (also exact). StaleP95
	// is the 95th percentile of per-aggregation MEAN lags — individual
	// payload lags are not stored in the trace, so it is coarser than the
	// Result's per-payload p95.
	StaleMean, StaleMax, StaleP95 float64
}

// ComputeStats scans t once.
func ComputeStats(t *Trace) Stats {
	var acc statsAccum
	acc.init()
	for i := range t.Events {
		acc.add(&t.Events[i])
	}
	return acc.finish()
}

// statsAccum folds events into Stats one at a time, shared by ComputeStats
// and the streaming ReadStats. Retained state is O(nodes) plus one float
// per aggregate event (the per-aggregation means the exact StaleP95 needs);
// the send/arrival bulk of a trace — the overwhelming majority at degree d —
// is folded without retention.
type statsAccum struct {
	s        Stats
	nodes    map[int]struct{}
	lagMeans []float64
	lagSum   float64
	lagCount int
}

func (a *statsAccum) init() {
	a.s.ByKind = make(map[Kind]int)
	a.nodes = make(map[int]struct{})
}

func (a *statsAccum) add(ev *Event) {
	a.s.Events++
	a.s.ByKind[ev.Kind]++
	a.s.Duration = ev.Time
	a.nodes[ev.Node] = struct{}{}
	switch ev.Kind {
	case KindSend:
		a.s.TotalBytes += int64(ev.Bytes)
		a.s.ModelBytes += int64(ev.ModelBytes)
		a.s.MetaBytes += int64(ev.MetaBytes)
		if ev.Dropped {
			a.s.Drops++
		}
	case KindAggregate:
		if ev.LagN > 0 {
			a.lagMeans = append(a.lagMeans, ev.LagMean)
			a.lagSum += ev.LagMean * float64(ev.LagN)
			a.lagCount += ev.LagN
		}
		if float64(ev.LagMax) > a.s.StaleMax {
			a.s.StaleMax = float64(ev.LagMax)
		}
	}
}

func (a *statsAccum) finish() Stats {
	s := a.s
	s.NodesSeen = len(a.nodes)
	if a.lagCount > 0 {
		s.StaleMean = a.lagSum / float64(a.lagCount)
		s.StaleP95 = Quantile(a.lagMeans, 0.95)
	}
	return s
}

// String renders a human-readable summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d over %.3fs, %d nodes\n", s.Events, s.Duration, s.NodesSeen)
	kinds := make([]Kind, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-11s %d\n", k.String(), s.ByKind[k])
	}
	fmt.Fprintf(&b, "bytes: %d total (%d model, %d metadata), %d sends dropped\n",
		s.TotalBytes, s.ModelBytes, s.MetaBytes, s.Drops)
	fmt.Fprintf(&b, "staleness: mean %.3f, max %.0f iterations (p95 of per-aggregation means %.3f)\n",
		s.StaleMean, s.StaleMax, s.StaleP95)
	return b.String()
}

// Diff reports how two traces of the same logical run differ. Events are
// matched by (kind, node, peer, iteration) with repeated keys paired in
// order, so a replayed schedule lines up with its recording even when
// global interleavings differ.
type Diff struct {
	// Matched counts events present in both traces; OnlyA/OnlyB count the
	// leftovers.
	Matched, OnlyA, OnlyB int
	// TimeErrMean/Max/P95 summarize |timeA - timeB| over matched events —
	// the per-event time error of A's clock against B's.
	TimeErrMean, TimeErrMax, TimeErrP95 float64
	// DurationA/DurationB are the traces' total spans (their ratio is the
	// aggregate time-model error).
	DurationA, DurationB float64
	// BytesA/BytesB are the traces' send-ledger totals.
	BytesA, BytesB int64
	// OrderMismatches counts nodes whose own event sequence (the per-node
	// observed ordering) differs between the traces; Nodes is how many nodes
	// appeared in either.
	OrderMismatches, Nodes int
}

type diffKey struct {
	kind       Kind
	node, peer int
	iter       int
}

// Compare diffs a against b.
func Compare(a, b *Trace) Diff {
	var c diffAccum
	c.init()
	for i := range b.Events {
		c.addB(&b.Events[i])
	}
	for i := range a.Events {
		c.addA(&a.Events[i])
	}
	return c.finish()
}

// diffAccum folds the two event streams of Compare: all of B first (the
// index side), then A (the probe side). Per-node ordering is tracked as a
// rolling order-sensitive FNV-1a hash plus a length, O(nodes) instead of a
// key per event, so the sequences themselves are never retained; bTimes and
// errs stay O(events) but hold one scalar per event rather than event
// structs.
type diffAccum struct {
	d          Diff
	bTimes     map[diffKey][]float64
	seqA, seqB map[int]nodeSeq
	errs       []float64
}

// nodeSeq summarizes one node's observed event ordering.
type nodeSeq struct {
	hash uint64
	n    int
}

// fold mixes k into the order-sensitive sequence hash.
func (s nodeSeq) fold(k diffKey) nodeSeq {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := s.hash
	if s.n == 0 {
		h = offset64
	}
	for _, v := range [4]uint64{uint64(k.kind), uint64(k.node), uint64(uint(k.peer)), uint64(uint(k.iter))} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return nodeSeq{hash: h, n: s.n + 1}
}

func (c *diffAccum) init() {
	c.bTimes = make(map[diffKey][]float64)
	c.seqA = make(map[int]nodeSeq)
	c.seqB = make(map[int]nodeSeq)
}

func (c *diffAccum) addB(ev *Event) {
	k := keyOf(*ev)
	c.bTimes[k] = append(c.bTimes[k], ev.Time)
	c.seqB[ev.Node] = c.seqB[ev.Node].fold(k)
	c.d.DurationB = ev.Time
	if ev.Kind == KindSend {
		c.d.BytesB += int64(ev.Bytes)
	}
}

func (c *diffAccum) addA(ev *Event) {
	k := keyOf(*ev)
	c.seqA[ev.Node] = c.seqA[ev.Node].fold(k)
	c.d.DurationA = ev.Time
	if ev.Kind == KindSend {
		c.d.BytesA += int64(ev.Bytes)
	}
	q := c.bTimes[k]
	if len(q) == 0 {
		c.d.OnlyA++
		return
	}
	c.bTimes[k] = q[1:]
	c.d.Matched++
	c.errs = append(c.errs, math.Abs(ev.Time-q[0]))
}

func (c *diffAccum) finish() Diff {
	d := c.d
	for _, q := range c.bTimes {
		d.OnlyB += len(q)
	}
	if len(c.errs) > 0 {
		var sum float64
		for _, e := range c.errs {
			sum += e
			if e > d.TimeErrMax {
				d.TimeErrMax = e
			}
		}
		d.TimeErrMean = sum / float64(len(c.errs))
		d.TimeErrP95 = Quantile(c.errs, 0.95)
	}
	// Per-node observed ordering: a node diverges when its sequence hash or
	// event count differs between the traces.
	nodes := make(map[int]struct{})
	for n := range c.seqA {
		nodes[n] = struct{}{}
	}
	for n := range c.seqB {
		nodes[n] = struct{}{}
	}
	d.Nodes = len(nodes)
	for n := range nodes {
		if c.seqA[n] != c.seqB[n] {
			d.OrderMismatches++
		}
	}
	return d
}

// String renders the diff report.
func (d Diff) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "matched %d events (%d only in A, %d only in B)\n", d.Matched, d.OnlyA, d.OnlyB)
	fmt.Fprintf(&b, "per-event time error: mean %.4fs, p95 %.4fs, max %.4fs\n",
		d.TimeErrMean, d.TimeErrP95, d.TimeErrMax)
	ratio := math.NaN()
	if d.DurationB > 0 {
		ratio = d.DurationA / d.DurationB
	}
	fmt.Fprintf(&b, "duration: A %.3fs vs B %.3fs (ratio %.3f)\n", d.DurationA, d.DurationB, ratio)
	fmt.Fprintf(&b, "send bytes: A %d vs B %d (delta %d)\n", d.BytesA, d.BytesB, d.BytesA-d.BytesB)
	fmt.Fprintf(&b, "per-node ordering: %d/%d nodes diverge\n", d.OrderMismatches, d.Nodes)
	return b.String()
}

// InSync reports whether the traces describe the same schedule: every event
// matched, identical byte ledgers, and identical per-node orderings. Time
// errors are allowed — that is the measurement.
func (d Diff) InSync() bool {
	return d.OnlyA == 0 && d.OnlyB == 0 && d.BytesA == d.BytesB && d.OrderMismatches == 0
}

func keyOf(ev Event) diffKey {
	return diffKey{kind: ev.Kind, node: ev.Node, peer: ev.Peer, iter: ev.Iter}
}

// Quantile returns the q-quantile (0..1) of xs by the nearest-rank method,
// without mutating xs. Returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
