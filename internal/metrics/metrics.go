// Package metrics is a zero-allocation telemetry registry for the engine hot
// path: counters and fixed-bucket histograms backed by atomics.
//
// Design constraints, in order:
//
//   - Observe/Add must not allocate and must not take locks — they run
//     inside the scheduler loop, which carries a CI-enforced ≤4 allocs/event
//     ceiling (internal/simulation TestSchedulerAllocationCeiling).
//   - Metrics are observational only. Instrumented code must never branch on
//     a metric value: snapshots may vary with parallelism (speculation hit
//     rates do), but the scheduled state they observe may not, so the
//     record→replay and parallelism-invariance parity suites stay byte-exact
//     with telemetry enabled.
//   - Registration is cheap but locked; callers pre-register every metric at
//     setup and keep the returned pointers, so steady state is pure atomics.
//
// A Registry serializes to a point-in-time Snapshot (for Result rows, CSVs,
// and benchmark reports).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is unusable;
// obtain one from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Allocation-free.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one. Allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative-friendly histogram. Bucket upper
// bounds are set at registration and never change; an implicit +Inf bucket
// catches overflow. Observe is lock-free and allocation-free: one binary
// search over the bounds, one atomic add, and a CAS loop folding the value
// into the float64 sum.
type Histogram struct {
	bounds []float64      // sorted upper bounds (exclusive of +Inf)
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// Observe records v. Allocation-free.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v; len(bounds) means +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindHistogram
)

type entry struct {
	name  string // metric name, e.g. "jwins_engine_events_total"
	label string // optional single label pair, e.g. `kind="train_done"`
	kind  metricKind
	c     *Counter
	h     *Histogram
}

// key is the snapshot map key: name plus the label pair in braces when set.
func (e *entry) key() string {
	if e.label == "" {
		return e.name
	}
	return e.name + "{" + e.label + "}"
}

// Registry owns a set of named metrics. Registration takes a mutex (setup
// path); reads of registered metric pointers are lock-free.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byKey   map[string]*entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

func (r *Registry) register(e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byKey[e.key()]; ok {
		if prev.kind != e.kind {
			panic(fmt.Sprintf("metrics: %s re-registered as a different kind", e.key()))
		}
		return prev
	}
	r.byKey[e.key()] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name string) *Counter {
	return r.CounterLabeled(name, "")
}

// CounterLabeled registers a counter carrying one fixed label pair, given as
// a literal label body, e.g. `kind="train_done"`.
func (r *Registry) CounterLabeled(name, label string) *Counter {
	e := r.register(&entry{name: name, label: label, kind: kindCounter, c: &Counter{}})
	return e.c
}

// Histogram registers (or returns the existing) histogram under name with the
// given sorted bucket upper bounds. The bounds slice is copied.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.HistogramLabeled(name, "", bounds)
}

// HistogramLabeled registers a histogram carrying one fixed label pair (see
// CounterLabeled). Re-registration under the same name+label returns the
// existing histogram; its original bounds win.
func (r *Registry) HistogramLabeled(name, label string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %s bounds are not sorted", name))
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	e := r.register(&entry{name: name, label: label, kind: kindHistogram, h: h})
	return e.h
}

// Reset zeroes every registered metric (counts, histogram buckets and
// sums). Registration survives; pointers held by instrumented code stay
// valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		switch e.kind {
		case kindCounter:
			e.c.v.Store(0)
		case kindHistogram:
			for i := range e.h.counts {
				e.h.counts[i].Store(0)
			}
			e.h.sum.Store(0)
			e.h.count.Store(0)
		}
	}
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is +Inf
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Mean returns the average observed value, or NaN when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the target rank. Values in the +Inf bucket clamp
// to the last finite bound. Returns NaN when the histogram is empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) { // +Inf bucket: clamp
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry, safe to retain and
// serialize after the run that produced it has been torn down. Keys are the
// metric name with the label pair appended in braces when present.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every registered metric. Counters and empty histograms with
// zero values are included (callers filter if they want sparsity).
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, e := range r.entries {
		switch e.kind {
		case kindCounter:
			s.Counters[e.key()] = e.c.Value()
		case kindHistogram:
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), e.h.bounds...),
				Counts: make([]int64, len(e.h.counts)),
				Sum:    math.Float64frombits(e.h.sum.Load()),
				Count:  e.h.count.Load(),
			}
			for i := range e.h.counts {
				hs.Counts[i] = e.h.counts[i].Load()
			}
			s.Histograms[e.key()] = hs
		}
	}
	return s
}

// Counter returns the named counter value, or 0 when absent.
func (s *Snapshot) Counter(key string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[key]
}

// Histogram returns the named histogram snapshot and whether it exists.
func (s *Snapshot) Histogram(key string) (HistogramSnapshot, bool) {
	if s == nil {
		return HistogramSnapshot{}, false
	}
	h, ok := s.Histograms[key]
	return h, ok
}

// ExpBuckets returns n upper bounds starting at start, each factor× the
// previous — the standard shape for queue depths and byte sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}
