package simulation

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// TestTelemetryCountsMatchSchedule: the telemetry counters must agree with
// the independently observed event stream and the byte ledger — and enabling
// telemetry must not change the schedule or the results.
func TestTelemetryCountsMatchSchedule(t *testing.T) {
	const rounds = 10
	mutate := func(cfg *AsyncConfig) {
		cfg.Het = Heterogeneity{ComputeSpread: 0.4, BandwidthSpread: 0.3, Seed: 5}
		cfg.Churn = GenerateChurn(8, 0.25, 0.02, 0.2, 0.1, 77)
		cfg.DropProb = 0.1
		cfg.FaultSeed = 3
	}
	plain := runAsync(t, algoJWINS, rounds, mutate)

	tel := NewTelemetry()
	byKind := map[trace.Kind]int64{}
	var total int64
	res := runAsync(t, algoJWINS, rounds, func(cfg *AsyncConfig) {
		mutate(cfg)
		cfg.Telemetry = tel
		cfg.Record = sinkFunc(func(ev trace.Event) {
			if scheduled(ev.Kind) {
				byKind[ev.Kind]++
				total++
			}
		})
	})

	// Telemetry must be a pure observer.
	if res.TotalBytes != plain.TotalBytes || res.SimTime != plain.SimTime ||
		len(res.Rounds) != len(plain.Rounds) {
		t.Fatalf("telemetry changed the run: bytes %d vs %d, simtime %v vs %v, rows %d vs %d",
			res.TotalBytes, plain.TotalBytes, res.SimTime, plain.SimTime, len(res.Rounds), len(plain.Rounds))
	}

	s := res.Telemetry
	if s == nil {
		t.Fatal("Result.Telemetry is nil with Telemetry enabled")
	}
	kinds := []struct {
		kind  trace.Kind
		label string
	}{
		{trace.KindTrainDone, `kind="train_done"`},
		{trace.KindArrival, `kind="arrival"`},
		{trace.KindLeave, `kind="leave"`},
		{trace.KindJoin, `kind="join"`},
		{trace.KindEpoch, `kind="epoch"`},
		{trace.KindDeadline, `kind="deadline"`},
	}
	var counted int64
	for _, k := range kinds {
		got := s.Counter(MetricEvents + "{" + k.label + "}")
		if got != byKind[k.kind] {
			t.Fatalf("%s counter = %d, the recording saw %d", k.label, got, byKind[k.kind])
		}
		counted += got
	}
	if counted != total {
		t.Fatalf("event counters sum to %d, the recording saw %d", counted, total)
	}

	qd, ok := s.Histogram(MetricQueueDepth)
	if !ok || qd.Count != total {
		t.Fatalf("queue-depth observations = %d (ok=%v), want one per event (%d)", qd.Count, ok, total)
	}
	if qd.Quantile(0.5) < 1 {
		t.Fatalf("queue-depth p50 = %v, want >= 1", qd.Quantile(0.5))
	}

	if got := s.Counter(MetricBytesTotal); got != res.TotalBytes {
		t.Fatalf("bytes counter = %d, ledger total = %d", got, res.TotalBytes)
	}
	if got := s.Counter(MetricBytesModel); got != res.ModelBytes {
		t.Fatalf("model bytes counter = %d, ledger = %d", got, res.ModelBytes)
	}
	if got := s.Counter(MetricBytesMeta); got != res.MetaBytes {
		t.Fatalf("meta bytes counter = %d, ledger = %d", got, res.MetaBytes)
	}
	if got := s.Counter(MetricRows); got != int64(len(res.Rounds)) {
		t.Fatalf("rows counter = %d, emitted %d", got, len(res.Rounds))
	}
	// Every committed train-done is a hit or a miss; events superseded by
	// churn (stale generation) commit nothing, so the sum may fall short of
	// the raw event count but never exceed it.
	hits, misses := s.Counter(MetricSpecHits), s.Counter(MetricSpecMisses)
	if hits+misses == 0 || hits+misses > byKind[trace.KindTrainDone] {
		t.Fatalf("spec hits %d + misses %d vs train-done events %d", hits, misses, byKind[trace.KindTrainDone])
	}

	// Barrier policy: one wait observation per aggregation (waits may be 0
	// when every payload already arrived).
	wait, ok := s.Histogram(MetricBarrierWait + `{policy="barrier"}`)
	if !ok {
		t.Fatalf("barrier-wait histogram missing; histogram keys: %v", keysOf(s.Histograms))
	}
	aggs := s.Counter(MetricAggregations)
	if wait.Count != aggs {
		t.Fatalf("wait observations %d != aggregations %d", wait.Count, aggs)
	}
	if wait.Sum < 0 || math.IsNaN(wait.Sum) {
		t.Fatalf("negative/NaN total wait %v", wait.Sum)
	}
	occ, ok := s.Histogram(MetricInboxOccupancy)
	if !ok || occ.Count != aggs {
		t.Fatalf("inbox-occupancy observations = %d (ok=%v), want %d", occ.Count, ok, aggs)
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTelemetryGossipPolicyLabel: the wait histogram is keyed by the resolved
// policy name, and non-blocking runs record no waits.
func TestTelemetryGossipPolicyLabel(t *testing.T) {
	tel := NewTelemetry()
	runAsync(t, algoJWINS, 6, func(cfg *AsyncConfig) {
		cfg.Policy = GossipPolicy{}
		cfg.Telemetry = tel
	})
	s := tel.Snapshot()
	wait, ok := s.Histogram(MetricBarrierWait + `{policy="gossip"}`)
	if !ok {
		t.Fatalf("gossip wait histogram not registered; keys: %v", keysOf(s.Histograms))
	}
	if wait.Count != 0 {
		t.Fatalf("gossip recorded %d waits, want 0 (non-blocking policy)", wait.Count)
	}
	if s.Counter(MetricAggregations) == 0 {
		t.Fatal("no aggregations counted")
	}
}

// TestTelemetryPoolSplit: serial runs count only inline submissions, parallel
// runs only pooled ones.
func TestTelemetryPoolSplit(t *testing.T) {
	telSerial := NewTelemetry()
	runAsync(t, algoJWINS, 6, func(cfg *AsyncConfig) {
		cfg.Parallelism = 1
		cfg.Telemetry = telSerial
	})
	s := telSerial.Snapshot()
	if s.Counter(MetricPoolInline) == 0 || s.Counter(MetricPoolTasks) != 0 {
		t.Fatalf("serial split: inline=%d pooled=%d, want inline>0 pooled=0",
			s.Counter(MetricPoolInline), s.Counter(MetricPoolTasks))
	}

	telPar := NewTelemetry()
	runAsync(t, algoJWINS, 6, func(cfg *AsyncConfig) {
		cfg.Parallelism = 2
		cfg.Telemetry = telPar
	})
	p := telPar.Snapshot()
	if p.Counter(MetricPoolTasks) == 0 || p.Counter(MetricPoolInline) != 0 {
		t.Fatalf("parallel split: inline=%d pooled=%d, want pooled>0 inline=0",
			p.Counter(MetricPoolInline), p.Counter(MetricPoolTasks))
	}
}

// TestTelemetryReuseAccumulates: a Telemetry reused across runs accumulates
// until its registry is reset.
func TestTelemetryReuseAccumulates(t *testing.T) {
	tel := NewTelemetry()
	runAsync(t, algoJWINS, 4, func(cfg *AsyncConfig) { cfg.Telemetry = tel })
	first := tel.Snapshot().Counter(MetricRows)
	if first != 4 {
		t.Fatalf("first run rows = %d, want 4", first)
	}
	runAsync(t, algoJWINS, 4, func(cfg *AsyncConfig) { cfg.Telemetry = tel })
	if got := tel.Snapshot().Counter(MetricRows); got != 8 {
		t.Fatalf("accumulated rows = %d, want 8", got)
	}
	tel.Registry().Reset()
	if got := tel.Snapshot().Counter(MetricRows); got != 0 {
		t.Fatalf("rows after reset = %d, want 0", got)
	}
}
