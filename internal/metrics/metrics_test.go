package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("jwins_test_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Re-registration returns the same metric.
	if r.Counter("jwins_test_total") != c {
		t.Fatal("re-registered counter is a different instance")
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := New()
	h := r.Histogram("jwins_test_wait", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs, ok := s.Histogram("jwins_test_wait")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCounts := []int64{1, 2, 1, 1, 1} // (≤1, ≤2, ≤4, ≤8, +Inf)
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Count != 6 {
		t.Fatalf("count = %d, want 6", hs.Count)
	}
	if want := 0.5 + 1.5 + 1.5 + 3 + 5 + 100; math.Abs(hs.Sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", hs.Sum, want)
	}
	if m := hs.Mean(); math.Abs(m-hs.Sum/6) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	// Boundary values land in the bucket whose bound equals them.
	h2 := r.Histogram("jwins_test_edge", []float64{1, 2})
	h2.Observe(1)
	h2.Observe(2)
	s2, _ := r.Snapshot().Histogram("jwins_test_edge")
	if s2.Counts[0] != 1 || s2.Counts[1] != 1 || s2.Counts[2] != 0 {
		t.Fatalf("boundary counts %v, want [1 1 0]", s2.Counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	hs := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{0, 100, 0, 0},
		Count:  100,
	}
	// All mass in (1,2]; the median interpolates to 1.5.
	if q := hs.Quantile(0.5); math.Abs(q-1.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 1.5", q)
	}
	if q := hs.Quantile(1); math.Abs(q-2) > 1e-9 {
		t.Fatalf("p100 = %v, want 2", q)
	}
	// Overflow bucket clamps to the last finite bound.
	over := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{0, 0, 5}, Count: 5}
	if q := over.Quantile(0.5); q != 2 {
		t.Fatalf("overflow p50 = %v, want 2", q)
	}
	empty := HistogramSnapshot{Bounds: []float64{1}}
	if q := empty.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty quantile = %v, want NaN", q)
	}
	if m := empty.Mean(); !math.IsNaN(m) {
		t.Fatalf("empty mean = %v, want NaN", m)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	r := New()
	h := r.Histogram("jwins_test_alloc", ExpBuckets(1, 2, 12))
	c := r.Counter("jwins_test_alloc_total")
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(3.7)
		c.Inc()
	})
	if allocs != 0 {
		t.Fatalf("hot-path metric ops allocate %.1f/op, want 0", allocs)
	}
}

func TestHistogramConcurrentSum(t *testing.T) {
	r := New()
	h := r.Histogram("jwins_test_conc", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	s, _ := r.Snapshot().Histogram("jwins_test_conc")
	if s.Count != 8000 || s.Sum != 8000 {
		t.Fatalf("count=%d sum=%v, want 8000/8000", s.Count, s.Sum)
	}
}

func TestReset(t *testing.T) {
	r := New()
	c := r.Counter("jwins_test_total")
	h := r.Histogram("jwins_test_hist", []float64{1})
	c.Add(5)
	h.Observe(0.5)
	r.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter after reset = %d", c.Value())
	}
	s, _ := r.Snapshot().Histogram("jwins_test_hist")
	if s.Count != 0 || s.Sum != 0 || s.Counts[0] != 0 {
		t.Fatalf("histogram after reset: %+v", s)
	}
	// Pointers stay live after reset.
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("counter dead after reset")
	}
}

func TestLabeledSeriesAndSnapshotKeys(t *testing.T) {
	r := New()
	r.CounterLabeled("jwins_events_total", `kind="train_done"`).Add(3)
	r.CounterLabeled("jwins_events_total", `kind="arrival"`).Add(4)
	s := r.Snapshot()
	if got := s.Counter(`jwins_events_total{kind="train_done"}`); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}
	if got := s.Counter(`jwins_events_total{kind="arrival"}`); got != 4 {
		t.Fatalf("labeled counter = %d, want 4", got)
	}
	if got := s.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	var nilSnap *Snapshot
	if nilSnap.Counter("x") != 0 {
		t.Fatal("nil snapshot Counter should return 0")
	}
	if _, ok := nilSnap.Histogram("x"); ok {
		t.Fatal("nil snapshot Histogram should report absent")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("jwins_c").Add(2)
	r.Histogram("jwins_h", []float64{1, 2}).Observe(1.5)
	buf, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["jwins_c"] != 2 {
		t.Fatalf("round-tripped counter = %d", back.Counters["jwins_c"])
	}
	if h := back.Histograms["jwins_h"]; h.Count != 1 || h.Counts[1] != 1 {
		t.Fatalf("round-tripped histogram %+v", h)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestMismatchedKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := New()
	r.Counter("jwins_x")
	r.Histogram("jwins_x", []float64{1})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("jwins_bench", ExpBuckets(1, 2, 14))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
	_ = fmt.Sprint(h.Count())
}
