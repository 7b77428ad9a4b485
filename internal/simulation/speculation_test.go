package simulation

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/trace"
)

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
	probe        *contractFleet
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
		// The contract fleet reads the popped train-done events from the
		// recording and counts evaluated models trained past them.
		out.probe = &contractFleet{}
		eng.Nodes = out.probe.wrap(eng.Nodes)
		eng.Config.Record = teeSink{sr, out.probe}
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
	if err := resultDiff(a.res, b.res); err != nil {
		return err
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
	if reads, stale := got.probe.evalReads.Load(), got.probe.aheadReads.Load(); reads == 0 || stale != 0 {
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
	if stale := exact.probe.aheadReads.Load(); stale != 0 {
		t.Fatalf("exact evaluation read %d models with a train in flight", stale)
	}
}
