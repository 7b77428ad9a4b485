package simulation

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/vec"
)

// fixedModelNode hashes its model's parameters at every Share and checks, at
// the start of the Aggregate that follows, that the model is still the one
// that Share saw — the core.Node contract that lets JWINS transform its model
// again in Aggregate instead of keeping DWT(x^(t,tau)) between the calls. It
// forwards LocalStepCount, SetDecodeCache and RecyclePayload, so the time
// model, the decode cache and payload recycling are unchanged.
type fixedModelNode struct {
	core.Node
	buf        []float64
	hash       uint64
	shared     bool  // a Share ran since the last Aggregate
	aggregates int   // Aggregates checked
	err        error // first violation
}

func (n *fixedModelNode) LocalStepCount() int { return localSteps(n.Node) }

func (n *fixedModelNode) SetDecodeCache(c *core.DecodeCache) {
	if u, ok := n.Node.(core.DecodeCacheUser); ok {
		u.SetDecodeCache(c)
	}
}

func (n *fixedModelNode) RecyclePayload(p []byte) {
	n.Node.(core.PayloadRecycler).RecyclePayload(p)
}

// paramHash is FNV-1a over the bits of the model's parameters.
func (n *fixedModelNode) paramHash() uint64 {
	m := n.Node.Model()
	x := vec.Grow(&n.buf, m.ParamCount())
	m.CopyParams(x)
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func (n *fixedModelNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	p, bd, err := n.Node.Share(round)
	n.hash, n.shared = n.paramHash(), true
	return p, bd, err
}

func (n *fixedModelNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	switch {
	case n.err != nil:
	case !n.shared:
		n.err = fmt.Errorf("round %d: Aggregate with no Share since the last one", round)
	case n.paramHash() != n.hash:
		n.err = fmt.Errorf("round %d: the model changed between Share and Aggregate", round)
	}
	n.shared = false
	n.aggregates++
	return n.Node.Aggregate(round, w, msgs)
}

// wrapFixedModel wraps every node of a fleet in a fixedModelNode.
func wrapFixedModel(nodes []core.Node) []*fixedModelNode {
	out := make([]*fixedModelNode, len(nodes))
	for i, nd := range nodes {
		out[i] = &fixedModelNode{Node: nd}
		nodes[i] = out[i]
	}
	return out
}

// checkFixedModel fails t on the first node whose model moved between a Share
// and its Aggregate, and logs how many Aggregates were checked.
func checkFixedModel(t *testing.T, wrapped []*fixedModelNode) {
	t.Helper()
	total := 0
	for i, w := range wrapped {
		if w.err != nil {
			t.Fatalf("node %d: %v", i, w.err)
		}
		total += w.aggregates
	}
	if total == 0 {
		t.Fatal("no Aggregate ran")
	}
	t.Logf("%d Aggregates saw the model their Share saw", total)
}

// TestModelFixedBetweenShareAndAggregate: no engine trains or sets a node's
// model between its last Share and the Aggregate that follows it, and no
// Aggregate runs without a Share since the previous one — on the synchronous
// engine with drops, and on the async engine under every aggregation policy
// with churn, stragglers, an epoch-rotated topology and speculation on the
// worker pool (the barrier arm also samples its evaluation, so it speculates
// on most iterations).
func TestModelFixedBetweenShareAndAggregate(t *testing.T) {
	t.Run("sync/drop", func(t *testing.T) {
		const n = 12
		ds, parts := buildTask(t, n, 42)
		nodes := buildNodes(t, algoJWINS, ds, parts, 7)
		wrapped := wrapFixedModel(nodes)
		g, err := topology.Regular(n, 4, vec.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{Nodes: nodes, Topology: topology.NewStatic(g), TestSet: ds, Config: Config{
			Rounds: 6, EvalEvery: 3, Parallelism: 2, DropProb: 0.2, FaultSeed: 3,
		}}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		checkFixedModel(t, wrapped)
	})
	for _, tc := range []struct {
		name   string
		policy AggregationPolicy
	}{
		{"barrier", BarrierPolicy{}},
		{"gossip", GossipPolicy{}},
		{"bounded", BoundedStalenessPolicy{K: 2, Tau: 2, AdaptiveTau: true}},
		{"deadline", DeadlinePolicy{Factor: 1.5}},
	} {
		t.Run("async/"+tc.name, func(t *testing.T) {
			const n, rounds = 48, 8
			eng := fleetEngineFor(t, n, rounds, 0.05, func(cfg *AsyncConfig) {
				cfg.Policy = tc.policy
				cfg.Parallelism = 2
				cfg.Het = Heterogeneity{ComputeSpread: 0.4, Seed: 5}
				cfg.Churn = GenerateChurn(n, 0.2, 0.02, 0.15, 0.04, 77)
				cfg.MixingEvery = -1
				cfg.Telemetry = NewTelemetry()
				if tc.name == "barrier" {
					cfg.EvalSample, cfg.EvalSeed = 6, 11
				}
			})
			wrapped := wrapFixedModel(eng.Nodes)
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkFixedModel(t, wrapped)
			hits := res.Telemetry.Counter(MetricSpecHits)
			t.Logf("%d speculative train+shares committed", hits)
			if hits == 0 {
				t.Fatal("no speculative train+share ran")
			}
		})
	}
}
