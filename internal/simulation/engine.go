// Package simulation drives decentralized training rounds over a topology,
// collecting the metrics the paper reports: per-round train loss, test
// accuracy/loss averaged over nodes, cumulative bytes split into model versus
// metadata, and a byte-driven simulated wall clock (compute + bandwidth +
// latency) standing in for the paper's cluster timings.
package simulation

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/vec"
)

// The simulated time model (Figure 6's wall-clock axis): every node's uplink
// (12.5 MB/s, about 100 Mbps), the time of one local SGD step, and the
// per-round communication latency. Heterogeneity scales them per node.
const (
	bandwidthBytesPerSec = 12.5e6
	computeSecPerStep    = 5e-3
	latencySec           = 10e-3
)

// evalBatch is the evaluation batch size.
const evalBatch = 32

// Config controls a run.
type Config struct {
	Rounds int
	// EvalEvery evaluates test metrics every k rounds (default 10; the final
	// round is always evaluated).
	EvalEvery int
	// EvalSample, when > 0 and below the node count, switches evaluation to a
	// seeded rotating subset of that many nodes per eval row: each row scores
	// the next window of a per-cycle random permutation, so every node is
	// visited within ceil(n/EvalSample) eval rows. Deterministic from
	// EvalSeed + the row's round — parallelism never changes the subset. 0
	// (the default) keeps exact all-node evaluation. Test accuracy is the mean
	// over evaluated nodes, as in the paper.
	EvalSample int
	// EvalSeed seeds the rotating-sample permutations (typically the run
	// seed).
	EvalSeed uint64
	// TargetAccuracy, if > 0, stops the run once mean test accuracy reaches
	// it (the paper's Figure 5/6 protocol).
	TargetAccuracy float64
	// Parallelism bounds concurrent node execution (default NumCPU).
	Parallelism int

	// DropProb drops each point-to-point message independently (extension
	// experiments). Partial-sharing averaging tolerates it: missing senders
	// simply drop out of the per-coefficient weight normalization. CHOCO's
	// error-feedback replicas, by contrast, silently diverge. Node absence
	// is AsyncConfig.Churn.
	DropProb float64
	// FaultSeed seeds the drop decisions (default derived from 1).
	FaultSeed uint64
}

func (c *Config) setDefaults() {
	if c.EvalEvery <= 0 {
		c.EvalEvery = 10
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
}

// RoundMetrics is one row of the result series.
type RoundMetrics struct {
	Round     int
	TrainLoss float64
	// TestLoss/TestAcc are NaN on rounds without evaluation.
	TestLoss float64
	TestAcc  float64
	// Cumulative bytes sent by all nodes (payload × receivers + framing).
	CumTotalBytes int64
	CumModelBytes int64
	CumMetaBytes  int64
	// SimTime is the simulated elapsed seconds after this round.
	SimTime float64
	// MeanAlpha is the mean sharing fraction sampled this round (JWINS only,
	// NaN otherwise) — the Figure 3 series.
	MeanAlpha float64
	// StaleMean/StaleMax/StaleP95 summarize the iteration lag (staleness) of
	// payloads merged by this iteration's aggregations: per merged payload,
	// lag = aggregator's iteration - payload's iteration, clamped at zero.
	// Identically 0 under the synchronous engine and the async local barrier
	// (every aggregation consumes current-iteration payloads); nonzero under
	// gossip and for rejoining nodes that merge cached broadcasts.
	StaleMean float64
	StaleMax  float64
	StaleP95  float64
	// EffNeighbors is the mean number of payloads actually merged per
	// aggregation at this iteration; DropRate is the fraction of expected
	// live-neighbor payloads that had not delivered the current iteration
	// when the aggregation fired (0 under the full barrier; the deadline
	// policy's straggler drops and gossip/bounded-staleness misses land
	// here). Async engine only.
	EffNeighbors float64
	DropRate     float64
	// Epoch is the topology epoch active when this row was emitted;
	// SpectralGap (1 - SLEM of the live mixing matrix) and NeighborTurnover
	// (fraction of that epoch's live edges absent from the previous epoch)
	// describe that epoch's mixing. Filled by the async engine; the
	// synchronous engine leaves them zero.
	Epoch            int
	SpectralGap      float64
	NeighborTurnover float64
}

// Result aggregates a full run.
type Result struct {
	Rounds []RoundMetrics
	// FinalAccuracy is the last evaluated accuracy.
	FinalAccuracy float64
	// FinalLoss is the last evaluated test loss.
	FinalLoss float64
	// RoundsToTarget is the first round whose evaluation reached
	// TargetAccuracy, or -1.
	RoundsToTarget int
	// BytesToTarget is the cumulative byte count at that round, or the total.
	BytesToTarget int64
	// TimeToTarget is the simulated time at that round, or the total.
	TimeToTarget float64
	TotalBytes   int64
	ModelBytes   int64
	MetaBytes    int64
	SimTime      float64
	// StaleMean/StaleMax/StaleP95 summarize payload staleness over every
	// aggregation of the run (see RoundMetrics).
	StaleMean float64
	StaleMax  float64
	StaleP95  float64
	// EffNeighborsMean is the mean merged-payload count per aggregation over
	// the run; DropRate the late fraction of expected payloads; LateDrops
	// the total count of live neighbors missing at aggregation time (see
	// RoundMetrics.EffNeighbors/DropRate). Async engine only.
	EffNeighborsMean float64
	DropRate         float64
	LateDrops        int64
	// Epochs counts the topology epochs entered (>= 1 for async runs: the
	// initial graph is epoch 0). SpectralGapMean/Min average and bound the
	// per-epoch spectral gap of the live mixing matrix; TurnoverMean is the
	// mean per-rotation neighbor turnover (0 when the topology never
	// rotates). Async engine only.
	Epochs          int
	SpectralGapMean float64
	SpectralGapMin  float64
	TurnoverMean    float64
	// Telemetry is the end-of-run metrics snapshot: everything the registry
	// holds when AsyncConfig.Telemetry was set (nil otherwise) under the async
	// engine, the decode cache's MetricDecodeHits/MetricDecodeMisses counters
	// alone under the synchronous engine. Observational only: values like the
	// speculation hit rate may differ across parallelism levels even though
	// every other Result field is bit-identical, so determinism comparisons
	// skip it.
	Telemetry *metrics.Snapshot
}

// Engine runs one experiment.
type Engine struct {
	Nodes    []core.Node
	Topology topology.Provider
	TestSet  *datasets.Dataset
	Config   Config

	// OnRound, if set, is called after every round with that round's metrics.
	OnRound func(RoundMetrics)
}

// Run executes the configured number of rounds (or stops at the target
// accuracy) and returns the collected metrics.
func (e *Engine) Run() (*Result, error) {
	cfg := e.Config
	cfg.setDefaults()
	n := len(e.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("simulation: no nodes")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("simulation: rounds must be positive")
	}

	res := &Result{RoundsToTarget: -1}
	var ledger byteLedger
	simTime := 0.0

	// Detached after the pool closes: no worker still reads an entry, and no
	// Share still writes a handed-back payload.
	dcache := &core.DecodeCache{}
	setDecodeCache(e.Nodes, dcache)
	defer setDecodeCache(e.Nodes, nil)
	defer recyclePayloads(e.Nodes, nil)

	pool := newComputePool(cfg.Parallelism)
	defer pool.close()

	payloads := make([][]byte, n)
	breakdowns := make([]codec.ByteBreakdown, n)
	losses := make([]float64, n)
	// alphas[i] is JWINS node i's sampled cut-off, committed by its share
	// task as the async engine commits them (NaN for other algorithms).
	alphas := make([]float64, n)
	for i := range alphas {
		alphas[i] = math.NaN()
	}
	var faultRNG *vec.RNG
	if cfg.DropProb > 0 {
		faultRNG = vec.NewRNG(cfg.FaultSeed ^ 0xfa017)
	}
	sampler := newEvalSampler(n, cfg)
	inbox := make([]map[int][]byte, n)
	for i := range inbox {
		inbox[i] = map[int][]byte{}
	}

	for round := 0; round < cfg.Rounds; round++ {
		graph, weights := e.Topology.Round(round)
		if graph.N != n {
			return nil, fmt.Errorf("simulation: topology has %d nodes, engine has %d", graph.N, n)
		}

		// Phase 1+2: local training then payload construction, per node.
		if err := pool.forEach(n, func(i int) error {
			loss, p, bd, err := trainShare(e.Nodes[i], round)
			if err != nil {
				return fmt.Errorf("node %d share: %w", i, err)
			}
			losses[i], payloads[i], breakdowns[i] = loss, p, bd
			if j, ok := e.Nodes[i].(*core.JWINSNode); ok {
				alphas[i] = j.LastAlpha
			}
			return nil
		}); err != nil {
			return nil, err
		}

		// Phase 3: delivery along topology edges + byte accounting. No
		// Aggregate keeps its map, so last round's inboxes are emptied and
		// refilled.
		for _, m := range inbox {
			clear(m)
		}
		maxNodeBytes := int64(0)
		for i := 0; i < n; i++ {
			for _, j := range graph.Neighbors(i) {
				if faultRNG != nil && faultRNG.Float64() < cfg.DropProb {
					continue // sender pays for the bytes; receiver never sees them
				}
				inbox[j][i] = payloads[i]
			}
			sent := ledger.addSend(breakdowns[i], len(payloads[i]), int64(graph.Degree(i)))
			if sent > maxNodeBytes {
				maxNodeBytes = sent
			}
		}

		// Phase 4: aggregation.
		if err := pool.forEach(n, func(i int) error {
			if err := e.Nodes[i].Aggregate(round, weights[i], inbox[i]); err != nil {
				return fmt.Errorf("node %d aggregate: %w", i, err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		// A synchronous round has no staleness: nobody acquires this round's
		// payloads again, so the cache holds one round (each Share publishes
		// into an empty slot). With every entry retired and the inboxes
		// refilled next round, nothing reads the payloads any more: each goes
		// back to its sender, whose next Share encodes into it.
		dcache.Reset()
		recyclePayloads(e.Nodes, payloads)

		// Simulated clock: compute is parallel across nodes; the round's
		// communication is bounded by the busiest uplink.
		stepTime := float64(localSteps(e.Nodes[0])) * computeSecPerStep
		simTime += stepTime + float64(maxNodeBytes)/bandwidthBytesPerSec + latencySec

		// Sampled runs reuse the row's eval subset for the alpha summary,
		// keeping row emission O(sample).
		subset := sampler.subsetFor(round)
		rm := RoundMetrics{
			Round:         round,
			TrainLoss:     mean(losses),
			TestLoss:      math.NaN(),
			TestAcc:       math.NaN(),
			CumTotalBytes: ledger.total,
			CumModelBytes: ledger.model,
			CumMetaBytes:  ledger.meta,
			SimTime:       simTime,
			MeanAlpha:     meanAlpha(alphas, subset),
		}

		if round%cfg.EvalEvery == cfg.EvalEvery-1 || round == cfg.Rounds-1 {
			loss, acc, err := evaluateNodesOn(pool, e.Nodes, e.TestSet, subset, nil)
			if err != nil {
				return nil, err
			}
			rm.TestLoss, rm.TestAcc = loss, acc
			res.FinalAccuracy, res.FinalLoss = acc, loss
			if cfg.TargetAccuracy > 0 && acc >= cfg.TargetAccuracy && res.RoundsToTarget < 0 {
				res.RoundsToTarget = round + 1
				res.BytesToTarget = ledger.total
				res.TimeToTarget = simTime
			}
		}
		res.Rounds = append(res.Rounds, rm)
		if e.OnRound != nil {
			e.OnRound(rm)
		}
		if cfg.TargetAccuracy > 0 && res.RoundsToTarget >= 0 {
			break
		}
	}
	res.TotalBytes, res.ModelBytes, res.MetaBytes = ledger.total, ledger.model, ledger.meta
	res.SimTime = simTime
	if res.RoundsToTarget < 0 {
		res.BytesToTarget = ledger.total
		res.TimeToTarget = simTime
	}
	hits, misses := dcache.Stats()
	res.Telemetry = &metrics.Snapshot{Counters: map[string]int64{
		MetricDecodeHits: hits, MetricDecodeMisses: misses,
	}}
	return res, nil
}
