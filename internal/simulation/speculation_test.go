package simulation

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/trace"
)

// specProbe watches speculation through the Node interface alone. popped[i]
// is the highest iteration whose train-done event the loop has popped for
// node i (fed from OnEvent), shared[i] the highest iteration node i's Share
// has run for. A Share that runs for an iteration above popped is a
// speculative one; a model read for evaluation while shared > popped is a
// model trained past the point the serial schedule has reached — exactly
// what specSafe exists to rule out.
type specProbe struct {
	popped, shared []atomic.Int64
	// evalReads counts Model() calls; staleReads those that saw an
	// uncommitted train.
	evalReads, staleReads atomic.Int64
}

type specNode struct {
	core.Node
	i int
	p *specProbe
}

func specFleet(nodes []core.Node) ([]core.Node, *specProbe) {
	n := len(nodes)
	p := &specProbe{popped: make([]atomic.Int64, n), shared: make([]atomic.Int64, n)}
	out := make([]core.Node, n)
	for i, nd := range nodes {
		p.popped[i].Store(-1)
		p.shared[i].Store(-1)
		out[i] = &specNode{Node: nd, i: i, p: p}
	}
	return out, p
}

func (p *specProbe) onEvent(ev Event) {
	if ev.Kind == EventTrainDone && int64(ev.Iter) > p.popped[ev.Node].Load() {
		p.popped[ev.Node].Store(int64(ev.Iter))
	}
}

func (n *specNode) LocalStepCount() int { return localSteps(n.Node) }

func (n *specNode) SetDecodeCache(c *core.DecodeCache) {
	if u, ok := n.Node.(core.DecodeCacheUser); ok {
		u.SetDecodeCache(c)
	}
}

func (n *specNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	n.p.shared[n.i].Store(int64(round))
	return n.Node.Share(round)
}

func (n *specNode) Model() nn.Trainable {
	n.p.evalReads.Add(1)
	if n.p.shared[n.i].Load() > n.p.popped[n.i].Load() {
		n.p.staleReads.Add(1)
	}
	return n.Node.Model()
}

// The speculation tests share one scenario: 256 nodes, stragglers
// (ComputeSpread 0.4), 20% churn, an epoch-rotated graph, evaluation every
// second row.
const (
	specNodes  = 256
	specRounds = 8
)

type specRun struct {
	res          *Result
	digest       [sha256.Size]byte
	hits, misses int64
	probe        *specProbe
}

func runSpecScenario(t *testing.T, parallelism int, probed bool, mut func(*Config)) specRun {
	t.Helper()
	var (
		buf bytes.Buffer
		out specRun
	)
	sr, err := trace.NewStreamRecorder(&buf, trace.Header{
		Nodes: specNodes, Rounds: specRounds, Source: trace.SourceSim, Policy: trace.PolicyBarrier,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := fleetEngineFor(t, specNodes, specRounds, 0.05, func(cfg *AsyncConfig) {
		cfg.Parallelism = parallelism
		cfg.EvalEvery = 2
		cfg.EvalSeed = 11
		cfg.Het = Heterogeneity{ComputeSpread: 0.4, Seed: 5}
		cfg.Churn = GenerateChurn(specNodes, 0.2, 0.02, 0.15, 0.04, 77)
		cfg.MixingEvery = -1
		cfg.Telemetry = NewTelemetry()
		cfg.Record = sr
		mut(&cfg.Config)
	})
	if probed {
		eng.Nodes, out.probe = specFleet(eng.Nodes)
		eng.Config.OnEvent = out.probe.onEvent
	}
	out.res, err = eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	out.digest = sha256.Sum256(buf.Bytes())
	out.hits = out.res.Telemetry.Counter(MetricSpecHits)
	out.misses = out.res.Telemetry.Counter(MetricSpecMisses)
	return out
}

func (a specRun) sameAs(b specRun) error {
	if a.digest != b.digest {
		return fmt.Errorf("trace digests differ")
	}
	if len(a.res.Rounds) != len(b.res.Rounds) {
		return fmt.Errorf("%d rows vs %d", len(a.res.Rounds), len(b.res.Rounds))
	}
	for i := range a.res.Rounds {
		if !metricsEqual(a.res.Rounds[i], b.res.Rounds[i]) {
			return fmt.Errorf("row %d: %+v vs %+v", i, a.res.Rounds[i], b.res.Rounds[i])
		}
	}
	if !floatsEqualNaN(a.res.FinalAccuracy, b.res.FinalAccuracy) || !floatsEqualNaN(a.res.FinalLoss, b.res.FinalLoss) {
		return fmt.Errorf("finals (%v, %v) vs (%v, %v)", a.res.FinalAccuracy, a.res.FinalLoss, b.res.FinalAccuracy, b.res.FinalLoss)
	}
	if a.hits != b.hits || a.misses != b.misses {
		return fmt.Errorf("speculation %d/%d vs %d/%d", a.hits, a.misses, b.hits, b.misses)
	}
	return nil
}

// TestSpeculationSampledEval: under sampled evaluation a node speculates
// unless an unemitted evaluation row samples it, so nearly every train runs
// ahead on the pool — and rows, finals and the recorded trace stay what the
// serial schedule produces at every pool width, with no evaluated model ever
// read ahead of its commit.
func TestSpeculationSampledEval(t *testing.T) {
	sampled := func(cfg *Config) { cfg.EvalSample = 16 }
	ref := runSpecScenario(t, 1, false, sampled)
	if rate := float64(ref.hits) / float64(ref.hits+ref.misses); rate < 0.95 {
		t.Errorf("spec hit rate %.3f (%d hits, %d misses), want >= 0.95", rate, ref.hits, ref.misses)
	}
	if err := ref.sameAs(runSpecScenario(t, 4, false, sampled)); err != nil {
		t.Fatalf("parallelism 4 diverged from serial: %v", err)
	}
	// The probed fleet is opaque to the engine's JWINS fast paths, so it is
	// held to the trace only — and to never showing evaluation a model whose
	// train the schedule has not reached.
	got := runSpecScenario(t, 2, true, sampled)
	if got.digest != ref.digest {
		t.Fatal("parallelism 2: the probed fleet recorded a different trace")
	}
	if reads, stale := got.probe.evalReads.Load(), got.probe.staleReads.Load(); reads == 0 || stale != 0 {
		t.Fatalf("parallelism 2: %d of %d evaluated models had a train in flight", stale, reads)
	}
}

// TestSpeculationUnchangedWhereEvaluationReads: exact evaluation reads every
// model, so its speculation decisions are the ones made before evaluation
// rows were told apart by who they sample — the hit and miss counts are the
// literals recorded at that commit. (TestSpeculationSampledEval covers the
// subset side.)
func TestSpeculationUnchangedWhereEvaluationReads(t *testing.T) {
	const wantHits, wantMisses = 731, 1354 // recorded at the parent commit
	exact := runSpecScenario(t, 1, true, func(*Config) {})
	if exact.hits != wantHits || exact.misses != wantMisses {
		t.Errorf("exact evaluation: %d hits, %d misses; recorded %d, %d", exact.hits, exact.misses, wantHits, wantMisses)
	}
	if stale := exact.probe.staleReads.Load(); stale != 0 {
		t.Fatalf("exact evaluation read %d models with a train in flight", stale)
	}
}
