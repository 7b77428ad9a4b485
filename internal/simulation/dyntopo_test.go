package simulation

import (
	"errors"
	"math"
	"strconv"
	"testing"

	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// dynEngineFor builds an AsyncEngine over the 8-node test task with an
// epoch-rotated random 4-regular topology (epochSec simulated seconds per
// epoch; one test iteration is ~22ms under the default time model).
func dynEngineFor(t *testing.T, kind algo, rounds int, epochSec float64, mut func(*AsyncConfig)) *AsyncEngine {
	t.Helper()
	const n = 8
	ds, parts := buildTask(t, n, 42)
	nodes := buildNodes(t, kind, ds, parts, 7)
	cfg := AsyncConfig{
		Config: Config{Rounds: rounds, EvalEvery: rounds, Parallelism: 2},
	}
	if mut != nil {
		mut(&cfg)
	}
	return &AsyncEngine{
		Nodes:    nodes,
		Topology: topology.NewEpochProvider(topology.NewSeededDynamic(n, 4, 9), n, epochSec),
		TestSet:  ds,
		Config:   cfg,
	}
}

// TestAsyncEpochTopologyRotates: a rotated run completes its budget, crosses
// several epoch boundaries, reports nonzero neighbor turnover and a spectral
// gap in (0, 1], stamps rows with the active epoch, and still learns.
func TestAsyncEpochTopologyRotates(t *testing.T) {
	eng := dynEngineFor(t, algoJWINS, 12, 0.05, nil)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 12 {
		t.Fatalf("completed %d/12 rows", len(res.Rounds))
	}
	if res.Epochs < 3 {
		t.Fatalf("expected several epochs over the run, got %d", res.Epochs)
	}
	if res.TurnoverMean <= 0 || res.TurnoverMean > 1 {
		t.Fatalf("turnover mean %v outside (0,1]", res.TurnoverMean)
	}
	if res.SpectralGapMean <= 0 || res.SpectralGapMean > 1 {
		t.Fatalf("spectral gap mean %v outside (0,1]", res.SpectralGapMean)
	}
	if res.SpectralGapMin <= 0 || res.SpectralGapMin > res.SpectralGapMean {
		t.Fatalf("gap min %v inconsistent with mean %v", res.SpectralGapMin, res.SpectralGapMean)
	}
	lastEpoch := 0
	sawGap := false
	for _, rm := range res.Rounds {
		if rm.Epoch < lastEpoch {
			t.Fatalf("row %d epoch %d regressed below %d", rm.Round, rm.Epoch, lastEpoch)
		}
		lastEpoch = rm.Epoch
		if rm.SpectralGap > 0 {
			sawGap = true
		}
	}
	if lastEpoch == 0 {
		t.Fatal("no row saw a rotated epoch")
	}
	if !sawGap {
		t.Fatal("no row carries a spectral gap")
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("rotated-topology run reached only %.2f", res.FinalAccuracy)
	}
}

// TestAsyncEpochStaticBaseParity: rotating epochs over a *static* base graph
// changes nothing observable except the epoch bookkeeping — the byte ledger,
// rows, and learning trajectory must equal the plain static-pin run (no
// fresh edges ever appear, so no state-sync sends fire).
func TestAsyncEpochStaticBaseParity(t *testing.T) {
	const rounds = 10
	g, err := topology.Regular(8, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	run := func(rotated bool) *Result {
		ds, parts := buildTask(t, 8, 42)
		nodes := buildNodes(t, algoJWINS, ds, parts, 7)
		eng := &AsyncEngine{
			Nodes:   nodes,
			TestSet: ds,
			Config:  AsyncConfig{Config: Config{Rounds: rounds, EvalEvery: rounds, Parallelism: 2}},
		}
		if rotated {
			eng.Topology = topology.NewEpochProvider(topology.NewStatic(g), 8, 0.05)
		} else {
			eng.Topology = topology.NewStatic(g)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(false)
	rotated := run(true)
	if static.TotalBytes != rotated.TotalBytes || static.FinalAccuracy != rotated.FinalAccuracy ||
		static.SimTime != rotated.SimTime {
		t.Fatalf("static-base rotation changed the run: (%d, %.4f, %v) vs (%d, %.4f, %v)",
			rotated.TotalBytes, rotated.FinalAccuracy, rotated.SimTime,
			static.TotalBytes, static.FinalAccuracy, static.SimTime)
	}
	if rotated.Epochs <= 1 {
		t.Fatalf("rotated run counted %d epochs", rotated.Epochs)
	}
	if rotated.TurnoverMean != 0 {
		t.Fatalf("static base reported turnover %v", rotated.TurnoverMean)
	}
	for i := range static.Rounds {
		if static.Rounds[i].TrainLoss != rotated.Rounds[i].TrainLoss ||
			static.Rounds[i].CumTotalBytes != rotated.Rounds[i].CumTotalBytes {
			t.Fatalf("row %d differs under static-base rotation", i)
		}
	}
}

// TestAsyncEpochChurnBoundaryCrossing: churn landing exactly on an epoch
// boundary (the SetLive-races-rotation scenario) must neither deadlock nor
// lose rows, whichever side of the boundary each event processes on.
func TestAsyncEpochChurnBoundaryCrossing(t *testing.T) {
	const epochSec = 0.05
	res, err := dynEngineFor(t, algoFull, 12, epochSec, func(cfg *AsyncConfig) {
		cfg.Churn = []ChurnEvent{
			{Time: 1 * epochSec, Node: 2, Join: false}, // leave exactly on boundary 1
			{Time: 2 * epochSec, Node: 2, Join: true},  // rejoin exactly on boundary 2
			{Time: 2 * epochSec, Node: 5, Join: false},
			{Time: 3.5 * epochSec, Node: 5, Join: true},
		}
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 12 {
		t.Fatalf("completed %d/12 rows", len(res.Rounds))
	}
	if math.IsNaN(res.FinalAccuracy) {
		t.Fatal("NaN accuracy")
	}
}

// TestAsyncReplayEpochMismatch: replaying a rotated trace needs a matching
// engine topology; mismatched epoch lengths and static engines are typed
// configuration errors, not silent wrong runs.
func TestAsyncReplayEpochMismatch(t *testing.T) {
	const rounds = 6
	const epochSec = 0.06
	var rec *trace.Recorder
	eng := dynEngineFor(t, algoFull, rounds, epochSec, func(cfg *AsyncConfig) {
		rec = trace.NewRecorder(trace.Header{
			Nodes: 8, Rounds: rounds, Source: trace.SourceSim, Policy: trace.PolicyBarrier,
			Meta: map[string]string{"epoch_sec": strconv.FormatFloat(epochSec, 'g', -1, 64)},
		})
		cfg.Record = rec
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// Wrong epoch length (header meta mismatch).
	rp, err := trace.NewReplayer(rec.Trace())
	if err != nil {
		t.Fatal(err)
	}
	wrongLen := dynEngineFor(t, algoFull, rounds, 0.1, func(cfg *AsyncConfig) { cfg.Replay = rp })
	if _, err := wrongLen.Run(); !errors.Is(err, ErrReplayConfig) {
		t.Fatalf("mismatched epoch length: got %v, want ErrReplayConfig", err)
	}

	// Static engine fed a rotated trace (no meta, rotation events only).
	headerless := *rec.Trace()
	headerless.Header.Meta = nil
	rp2, err := trace.NewReplayer(&headerless)
	if err != nil {
		t.Fatal(err)
	}
	static := asyncEngineFor(t, algoFull, rounds, func(cfg *AsyncConfig) { cfg.Replay = rp2 })
	if _, err := static.Run(); !errors.Is(err, ErrReplayConfig) {
		t.Fatalf("rotated trace into static engine: got %v, want ErrReplayConfig", err)
	}
}

// TestAsyncStaticRunsReportMixing: even without rotation, async results carry
// the (constant) spectral gap of the pinned graph, and zero turnover.
func TestAsyncStaticRunsReportMixing(t *testing.T) {
	res := runAsync(t, algoFull, 5, nil)
	if res.Epochs != 1 {
		t.Fatalf("static run counted %d epochs, want 1", res.Epochs)
	}
	if res.SpectralGapMean <= 0 || res.SpectralGapMean > 1 {
		t.Fatalf("static spectral gap %v outside (0,1]", res.SpectralGapMean)
	}
	if res.TurnoverMean != 0 {
		t.Fatalf("static run reported turnover %v", res.TurnoverMean)
	}
	for _, rm := range res.Rounds {
		if rm.Epoch != 0 || rm.NeighborTurnover != 0 {
			t.Fatalf("static row carries rotation state: %+v", rm)
		}
		if rm.SpectralGap != res.SpectralGapMean {
			t.Fatalf("static row gap %v != run gap %v", rm.SpectralGap, res.SpectralGapMean)
		}
	}
}
