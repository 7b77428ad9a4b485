// telemetry.go wires the zero-allocation metrics registry into the async
// scheduler's hot path. Everything here is strictly observational: no
// instrumented code path reads a metric back, so the scheduled state — and
// with it the record→replay and parallelism-invariance parity guarantees —
// is bit-identical with telemetry on or off. What MAY vary with parallelism
// is the telemetry itself (speculation hit rates depend on worker timing
// only in that a hit is a hit at any P; queue depths and waits are schedule-
// derived and deterministic), which is why snapshots are reported beside
// results, never compared by the determinism suite.
//
// Every operation used per event is a pre-registered atomic (see
// internal/metrics): the ≤4 allocs/event ceiling enforced by
// TestSchedulerAllocationCeiling holds with telemetry enabled, and that test
// runs with telemetry on to prove it.
package simulation

import (
	"strings"

	"repro/internal/metrics"
)

// telemetry metric names. Exported as constants so
// CSV/report consumers key snapshots without typo drift.
const (
	// MetricEvents counts processed scheduler events, labeled by kind.
	MetricEvents = "jwins_engine_events_total"
	// MetricQueueDepth is the event-queue depth observed at each pop.
	MetricQueueDepth = "jwins_engine_queue_depth"
	// MetricBarrierWait is the simulated seconds a node spends blocked on its
	// aggregation policy (broadcast → aggregate), labeled by policy name.
	MetricBarrierWait = "jwins_engine_barrier_wait_seconds"
	// MetricInboxOccupancy is the merged-payload count per aggregation.
	MetricInboxOccupancy = "jwins_engine_inbox_occupancy"
	// MetricSpecHits / MetricSpecMisses count train+share computations that
	// were speculatively dispatched to the pool vs run inline because a churn
	// or evaluation window made speculation unsafe.
	MetricSpecHits   = "jwins_engine_spec_train_hits_total"
	MetricSpecMisses = "jwins_engine_spec_train_misses_total"
	// MetricPoolTasks / MetricPoolInline count pool submissions that went to
	// a worker vs ran inline (serial mode) — the pool utilization split.
	MetricPoolTasks  = "jwins_engine_pool_tasks_total"
	MetricPoolInline = "jwins_engine_pool_inline_total"
	// MetricSends counts point-to-point payload copies; the byte counters
	// split the ledger by codec stage (model coefficients vs metadata+framing).
	MetricSends      = "jwins_engine_sends_total"
	MetricBytesTotal = "jwins_engine_bytes_total"
	MetricBytesModel = "jwins_engine_model_bytes_total"
	MetricBytesMeta  = "jwins_engine_meta_bytes_total"
	// MetricAggregations counts committed aggregations; MetricRows emitted
	// result rows.
	MetricAggregations = "jwins_engine_aggregations_total"
	MetricRows         = "jwins_engine_rows_total"
	// MetricDecodeHits / MetricDecodeMisses count payload reads served from
	// the fleet-shared cache (published by the sender or decoded once) vs
	// decoded fresh; a sync run reads 0 misses. Async totals depend on pool
	// interleaving (which recipient reaches a broadcast first), so they are
	// telemetry only — never part of a determinism comparison.
	MetricDecodeHits   = "jwins_engine_decode_cache_hits_total"
	MetricDecodeMisses = "jwins_engine_decode_cache_misses_total"
)

// eventKindLabels maps EventKind to its label pair in the snapshot key.
// Indexed by the EventKind constants; keep in sync with events.go.
var eventKindLabels = [...]string{
	EventTrainDone: `kind="train_done"`,
	EventArrival:   `kind="arrival"`,
	EventLeave:     `kind="leave"`,
	EventJoin:      `kind="join"`,
	EventEpoch:     `kind="epoch"`,
	EventDeadline:  `kind="deadline"`,
}

// Telemetry bundles the engine's pre-registered metrics. Create one with
// NewTelemetry, hand it to AsyncConfig.Telemetry, and read the Snapshot the
// run leaves in Result.Telemetry. A Telemetry may be reused across runs;
// counters then accumulate (call Registry().Reset() between runs for
// per-run numbers).
type Telemetry struct {
	reg *metrics.Registry

	events         [len(eventKindLabels)]*metrics.Counter
	queueDepth     *metrics.Histogram
	inboxOccupancy *metrics.Histogram
	specHits       *metrics.Counter
	specMisses     *metrics.Counter
	poolTasks      *metrics.Counter
	poolInline     *metrics.Counter
	sends          *metrics.Counter
	bytesTotal     *metrics.Counter
	bytesModel     *metrics.Counter
	bytesMeta      *metrics.Counter
	aggregations   *metrics.Counter
	rows           *metrics.Counter
	decodeHits     *metrics.Counter
	decodeMisses   *metrics.Counter
}

// NewTelemetry builds a Telemetry on a fresh registry.
func NewTelemetry() *Telemetry {
	t := &Telemetry{reg: metrics.New()}
	for k, label := range eventKindLabels {
		t.events[k] = t.reg.CounterLabeled(MetricEvents, label)
	}
	t.queueDepth = t.reg.Histogram(MetricQueueDepth, metrics.ExpBuckets(1, 2, 16))        // 1 .. 32768
	t.inboxOccupancy = t.reg.Histogram(MetricInboxOccupancy, metrics.ExpBuckets(1, 2, 9)) // 1 .. 256 (max graph degree in practice)
	t.specHits = t.reg.Counter(MetricSpecHits)
	t.specMisses = t.reg.Counter(MetricSpecMisses)
	t.poolTasks = t.reg.Counter(MetricPoolTasks)
	t.poolInline = t.reg.Counter(MetricPoolInline)
	t.sends = t.reg.Counter(MetricSends)
	t.bytesTotal = t.reg.Counter(MetricBytesTotal)
	t.bytesModel = t.reg.Counter(MetricBytesModel)
	t.bytesMeta = t.reg.Counter(MetricBytesMeta)
	t.aggregations = t.reg.Counter(MetricAggregations)
	t.rows = t.reg.Counter(MetricRows)
	t.decodeHits = t.reg.Counter(MetricDecodeHits)
	t.decodeMisses = t.reg.Counter(MetricDecodeMisses)
	return t
}

// Registry exposes the underlying registry, e.g. to Reset it between runs.
func (t *Telemetry) Registry() *metrics.Registry { return t.reg }

// Snapshot returns a point-in-time copy of every metric.
func (t *Telemetry) Snapshot() *metrics.Snapshot { return t.reg.Snapshot() }

// TelemetrySummary distills a snapshot into the headline scalars experiment
// CSVs and benchmark reports carry alongside accuracy and bytes.
type TelemetrySummary struct {
	QueueP95      float64 // event-queue depth at pop, 95th percentile
	WaitP95       float64 // simulated policy-wait seconds, 95th percentile
	SpecHitRate   float64 // speculative train dispatches committed / all dispatches; 0 when none ran
	DecodeHitRate float64 // decode-cache hits / all payload decodes; 0 when none ran
}

// Summarize extracts the summary from a snapshot. The wait series is matched
// by family prefix — a run registers exactly one, named for its policy — and
// when several policies accumulated into a reused registry, the busiest
// series wins. A nil snapshot yields zeros.
func Summarize(snap *metrics.Snapshot) TelemetrySummary {
	var s TelemetrySummary
	if snap == nil {
		return s
	}
	if h, ok := snap.Histogram(MetricQueueDepth); ok && h.Count > 0 {
		s.QueueP95 = h.Quantile(0.95)
	}
	var wait metrics.HistogramSnapshot
	for key, h := range snap.Histograms {
		if strings.HasPrefix(key, MetricBarrierWait+"{") && h.Count > wait.Count {
			wait = h
		}
	}
	if wait.Count > 0 {
		s.WaitP95 = wait.Quantile(0.95)
	}
	hits := snap.Counter(MetricSpecHits)
	misses := snap.Counter(MetricSpecMisses)
	if hits+misses > 0 {
		s.SpecHitRate = float64(hits) / float64(hits+misses)
	}
	dh := snap.Counter(MetricDecodeHits)
	dm := snap.Counter(MetricDecodeMisses)
	if dh+dm > 0 {
		s.DecodeHitRate = float64(dh) / float64(dh+dm)
	}
	return s
}

// waitHistogram registers (or fetches) the per-policy barrier-wait series.
// Called once per Run at setup, never on the hot path.
func (t *Telemetry) waitHistogram(policy string) *metrics.Histogram {
	return t.reg.HistogramLabeled(MetricBarrierWait, `policy="`+policy+`"`,
		[]float64{1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30})
}
