package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dwt"
	"repro/internal/sparsify"
	"repro/internal/topology"
)

// The dwt, sparsify and codec calls happen inside core, and the topology
// calls inside the engine, where a wrapper cannot reach them. The probes time
// the same public functions on the traced run's own data after it ends and
// attribute ns/op × the calls the algorithm implies. The results are
// estimates: warm caches, no GC pressure from the run, one payload per node.

const (
	probeNodes  = 8
	probeBudget = 30 * time.Millisecond
)

// nsPerOp times fn for at least probeBudget after one warm-up call.
func nsPerOp(fn func()) float64 {
	fn()
	start, n := time.Now(), 0
	for time.Since(start) < probeBudget {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeInputs is what the probes take from the traced run.
type probeInputs struct {
	b             *built
	tr            *tracer
	epochs        int     // topology epochs entered (async), 0 for static
	decodeHitRate float64 // decode-cache hit rate (async), 0 without a cache
}

// runProbes returns the probe metrics and the names of failed round-trip
// checks.
func runProbes(in probeInputs) (map[string]float64, []string) {
	m := map[string]float64{}
	var failed []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failed = append(failed, fmt.Sprintf(format, args...))
		}
	}

	fleet := in.b.fleet
	var sample []int
	for i := 0; i < probeNodes && i < len(fleet); i++ {
		sample = append(sample, i*len(fleet)/probeNodes)
	}
	_, shareCalls := in.tr.total(spanShare)
	_, aggCalls := in.tr.total(spanAggregate)
	perSample := float64(len(sample))
	dim := fleet[0].Model().ParamCount()
	params := make([][]float64, len(sample))
	for s, id := range sample {
		params[s] = make([]float64, dim)
		fleet[id].Model().CopyParams(params[s])
	}

	// dwt + sparsify: JWINS only; full sharing makes zero such calls.
	if _, ok := fleet[0].(*core.JWINSNode); ok {
		cfg := core.DefaultJWINSConfig()
		tf, err := dwt.NewTransformer(dim, dwt.MustByName(cfg.Wavelet), cfg.Levels)
		if err != nil {
			return m, append(failed, "probe: "+err.Error())
		}
		coeffLen := tf.CoeffLen()
		coeffs := make([][]float64, len(sample))
		back := make([]float64, dim)
		for s := range sample {
			coeffs[s] = make([]float64, coeffLen)
			tf.Forward(params[s], coeffs[s])
			tf.Inverse(coeffs[s], back)
			worst := 0.0
			for i := range back {
				worst = math.Max(worst, math.Abs(back[i]-params[s][i]))
			}
			check(worst <= 1e-9, "dwt round trip: node %d off by %g", sample[s], worst)
		}
		out := make([]float64, coeffLen)
		fwd := nsPerOp(func() {
			for s := range sample {
				tf.Forward(params[s], out)
			}
		}) / perSample
		inv := nsPerOp(func() {
			for s := range sample {
				tf.Inverse(coeffs[s], back)
			}
		}) / perSample
		m["dwt.forward.ns_per_coeff"] = fwd / float64(coeffLen)
		m["dwt.forward.attributed_s"] = fwd * float64(2*shareCalls+aggCalls) / 1e9
		m["dwt.inverse.ns_per_coeff"] = inv / float64(coeffLen)
		m["dwt.inverse.attributed_s"] = inv * float64(aggCalls) / 1e9

		k := int(math.Round(cfg.Alphas.Mean() * float64(coeffLen)))
		var scratch sparsify.TopKScratch
		for _, id := range sample {
			acc := fleet[id].(*core.JWINSNode).Accumulator()
			sel := sparsify.TopKIndicesWith(&scratch, acc, k)
			picked := make([]bool, len(acc))
			least := math.Inf(1)
			for _, i := range sel {
				picked[i] = true
				least = math.Min(least, math.Abs(acc[i]))
			}
			most := 0.0
			for i, v := range acc {
				if !picked[i] {
					most = math.Max(most, math.Abs(v))
				}
			}
			check(len(sel) == k && least >= most, "top-k: node %d returned %d of %d indices, least picked %g vs most left %g", id, len(sel), k, least, most)
		}
		topk := nsPerOp(func() {
			for _, id := range sample {
				sparsify.TopKIndicesWith(&scratch, fleet[id].(*core.JWINSNode).Accumulator(), k)
			}
		}) / perSample
		m["sparsify.topk.ns_per_coeff"] = topk / float64(coeffLen)
		m["sparsify.topk.attributed_s"] = topk * float64(shareCalls) / 1e9
	}

	// codec: each sampled node's last payload, decoded and re-encoded.
	var (
		payloads     [][]byte
		vectors      []codec.SparseVector
		values, size int
	)
	for _, id := range sample {
		p := in.tr.lastPayload[id]
		if len(p) == 0 {
			continue // offline under churn at its last turn
		}
		var sv codec.SparseVector
		if err := codec.DecodeSparseInto(&sv, p); err != nil {
			failed = append(failed, fmt.Sprintf("codec round trip: node %d: %v", id, err))
			continue
		}
		again, _, err := codec.EncodeSparse(sv, indexMode(sv), in.b.fc)
		check(err == nil && bytes.Equal(again, p), "codec round trip: node %d re-encodes to different bytes", id)
		payloads, vectors = append(payloads, p), append(vectors, sv)
		values += len(sv.Values)
		size += len(p)
	}
	if len(payloads) > 0 {
		n := float64(len(payloads))
		var es codec.EncodeScratch
		enc := nsPerOp(func() {
			for _, sv := range vectors {
				codec.EncodeSparseWith(&es, sv, indexMode(sv), in.b.fc)
			}
		}) / n
		var into codec.SparseVector
		dec := nsPerOp(func() {
			for _, p := range payloads {
				codec.DecodeSparseInto(&into, p)
			}
		}) / n
		perPayload := float64(values) / n
		m["codec.encode.ns_per_value"] = enc / perPayload
		m["codec.encode.attributed_s"] = enc * float64(shareCalls) / 1e9
		m["codec.decode.ns_per_value"] = dec / perPayload
		m["codec.decode.attributed_s"] = dec * float64(in.tr.aggMsgs) * (1 - in.decodeHitRate) / 1e9
		m["codec.bytes_per_value"] = float64(size) / float64(values)
	}

	// topology: one rotation = graph + Metropolis-Hastings weights, plus the
	// spectral gap on the epochs that sample it.
	if in.epochs > 0 {
		w := in.b.w
		sd := topology.NewSeededDynamic(w.Nodes, w.Degree, fixedSeed^topoSeedMask)
		epoch := 0
		var g *topology.Graph
		var weights []topology.Weights
		rotate := nsPerOp(func() {
			epoch++
			g = sd.Graph(epoch)
			weights = topology.MetropolisHastings(g)
		})
		gap := nsPerOp(func() { topology.SpectralGap(g, weights, nil) })
		sampled := (in.epochs + asyncMixingEvery - 1) / asyncMixingEvery
		m["topology.epoch.ns"] = rotate + gap
		m["topology.epoch.attributed_s"] = (rotate*float64(in.epochs) + gap*float64(sampled)) / 1e9
	}
	return m, failed
}

func indexMode(sv codec.SparseVector) codec.IndexMode {
	if sv.Indices == nil {
		return codec.IndexDense
	}
	return codec.IndexGamma
}
