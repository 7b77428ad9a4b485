package main

import (
	"math"
	"slices"
	"strings"

	"repro/internal/simulation"
)

// metricDef is one named metric. BENCHMARK.json lists the same names, units,
// directions and bounds; the tests hold the two in agreement.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the median it may worsen
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off at default parallelism over the e2e runs of one invocation: the fastest
// repeat for wall_s, the median for set-up time and memory; bytes_total, sim_s
// and final_acc are exact for a given seed. The bounds are at least three
// times the inter-quartile spread measured over ten seeds on the 2-core
// sandbox (see README.md, "Bounds").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "bytes_total", unit: "bytes", better: "lower", bound: 0.01},
	{name: "sim_s", unit: "s", better: "lower", bound: 0.01},
	{name: "final_acc", unit: "ratio", better: "higher", bound: 0.15},
}

// perLayer are the metrics of single layers, from the traced run (spans and
// counts), the probes (ns per element, attributed_s), engine telemetry, and
// the serial run (heap traffic, speed-up). A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{name: "nn.train_batch.busy_s", unit: "s", better: "lower"},
	{name: "nn.train_batch.calls", unit: "count", better: "lower"},
	{name: "nn.eval_batch.busy_s", unit: "s", better: "lower"},
	{name: "nn.eval_batch.calls", unit: "count", better: "lower"},
	{name: "nn.params_copy.busy_s", unit: "s", better: "lower"},
	{name: "datasets.loader.busy_s", unit: "s", better: "lower"},
	{name: "core.share.busy_s", unit: "s", better: "lower"},
	{name: "core.share.calls", unit: "count", better: "lower"},
	{name: "core.share.self_s", unit: "s", better: "lower"},
	{name: "core.share.payload_bytes_mean", unit: "bytes", better: "lower"},
	{name: "core.aggregate.busy_s", unit: "s", better: "lower"},
	{name: "core.aggregate.calls", unit: "count", better: "lower"},
	{name: "core.aggregate.self_s", unit: "s", better: "lower"},
	{name: "dwt.forward.ns_per_coeff", unit: "ns", better: "lower"},
	{name: "dwt.forward.attributed_s", unit: "s", better: "lower"},
	{name: "dwt.inverse.ns_per_coeff", unit: "ns", better: "lower"},
	{name: "dwt.inverse.attributed_s", unit: "s", better: "lower"},
	{name: "sparsify.topk.ns_per_coeff", unit: "ns", better: "lower"},
	{name: "sparsify.topk.attributed_s", unit: "s", better: "lower"},
	{name: "codec.encode.ns_per_value", unit: "ns", better: "lower"},
	{name: "codec.encode.attributed_s", unit: "s", better: "lower"},
	{name: "codec.decode.ns_per_value", unit: "ns", better: "lower"},
	{name: "codec.decode.attributed_s", unit: "s", better: "lower"},
	{name: "codec.meta_share", unit: "ratio", better: "lower"},
	{name: "codec.bytes_per_value", unit: "bytes", better: "lower"},
	{name: "simulation.self_s", unit: "s", better: "lower"},
	{name: "simulation.events", unit: "count", better: "lower"},
	{name: "simulation.events_per_s", unit: "1/s", better: "higher"},
	{name: "simulation.queue_p95", unit: "count", better: "lower"},
	{name: "simulation.wait_p95_s", unit: "s", better: "lower"},
	{name: "simulation.spec_hit_rate", unit: "ratio", better: "higher"},
	{name: "simulation.decode_hit_rate", unit: "ratio", better: "higher"},
	{name: "simulation.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "simulation.allocs_per_node_round", unit: "count", better: "lower"},
	{name: "simulation.alloc_mb_per_node_round", unit: "MB", better: "lower"},
	{name: "topology.epoch.ns", unit: "ns", better: "lower"},
	{name: "topology.epoch.attributed_s", unit: "s", better: "lower"},
	{name: "trace.record.busy_s", unit: "s", better: "lower"},
	{name: "trace.record.events", unit: "count", better: "lower"},
	{name: "trace.bytes", unit: "bytes", better: "lower"},
	{name: "trace.read.busy_s", unit: "s", better: "lower"},
	{name: "experiments.workload_synth_s", unit: "s", better: "lower"},
	{name: "experiments.fleet_build_s", unit: "s", better: "lower"},
	{name: "simulation.final_loss", unit: "loss", better: "lower"},
	{name: "trace_overhead", unit: "ratio", better: "lower"},
	{name: "attribution_gap", unit: "ratio", better: "lower"},
}

// spanMetrics turns the traced run's spans, counts and telemetry into layer
// metrics, adding to the probe metrics in m.
func spanMetrics(m map[string]float64, t *tracer, rec *runRecord, res *simulation.Result) {
	busy := func(k spanKind) float64 { d, _ := t.total(k); return d.Seconds() }
	calls := func(k spanKind) float64 { _, n := t.total(k); return float64(n) }

	m["nn.train_batch.busy_s"], m["nn.train_batch.calls"] = busy(spanTrainBatch), calls(spanTrainBatch)
	m["nn.eval_batch.busy_s"], m["nn.eval_batch.calls"] = busy(spanEvalBatch), calls(spanEvalBatch)
	m["nn.params_copy.busy_s"] = busy(spanCopyParams) + busy(spanSetParams)
	m["datasets.loader.busy_s"] = t.self(spanLocalTrain).Seconds()
	m["core.share.busy_s"], m["core.share.calls"] = busy(spanShare), calls(spanShare)
	m["core.share.self_s"] = t.self(spanShare).Seconds()
	m["core.share.payload_bytes_mean"] = ratio(float64(t.shareBytes), calls(spanShare))
	m["core.aggregate.busy_s"], m["core.aggregate.calls"] = busy(spanAggregate), calls(spanAggregate)
	m["core.aggregate.self_s"] = t.self(spanAggregate).Seconds()
	m["codec.meta_share"] = ratio(float64(res.MetaBytes), float64(res.TotalBytes))
	m["simulation.self_s"] = t.self(spanRun).Seconds()
	m["trace.record.busy_s"], m["trace.record.events"] = busy(spanTraceRecord), calls(spanTraceRecord)
	m["trace.bytes"], m["trace.read.busy_s"] = float64(rec.TraceBytes), rec.TraceReadS
	m["experiments.workload_synth_s"], m["experiments.fleet_build_s"] = rec.SynthS, rec.FleetS
	m["simulation.final_loss"] = res.FinalLoss

	if res.Telemetry != nil {
		tel := simulation.Summarize(res.Telemetry)
		m["simulation.queue_p95"], m["simulation.wait_p95_s"] = tel.QueueP95, tel.WaitP95
		m["simulation.spec_hit_rate"], m["simulation.decode_hit_rate"] = tel.SpecHitRate, tel.DecodeHitRate
		for key, v := range res.Telemetry.Counters {
			if strings.HasPrefix(key, simulation.MetricEvents) {
				m["simulation.events"] += float64(v)
			}
		}
	}

	// The probes' estimates must fit inside the spans that contain the
	// probed calls; the share by which they overshoot is instrument error.
	attributed := m["dwt.forward.attributed_s"] + m["dwt.inverse.attributed_s"] +
		m["sparsify.topk.attributed_s"] + m["codec.encode.attributed_s"] + m["codec.decode.attributed_s"]
	over := attributed - m["core.share.self_s"] - m["core.aggregate.self_s"]
	m["attribution_gap"] = math.Max(0, over) / rec.WallS
}

// crossRunMetrics adds the layer metrics that compare runs: the traced run
// against the serial one, and the serial one against the e2e one.
func crossRunMetrics(m map[string]float64, e2e, serial, traced *runRecord) {
	m["trace_overhead"] = traced.WallS/serial.WallS - 1
	m["simulation.parallel_speedup"] = serial.WallS / e2e.WallS
	m["simulation.events_per_s"] = m["simulation.events"] / serial.WallS
	ops := float64(serial.Ops)
	m["simulation.allocs_per_node_round"] = float64(serial.Mallocs) / ops
	m["simulation.alloc_mb_per_node_round"] = float64(serial.AllocBytes) / ops / (1 << 20)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max − min) ÷ median.
func spread(v []float64) float64 {
	return ratio(slices.Max(v)-slices.Min(v), median(v))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
