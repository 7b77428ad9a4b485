package simulation

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/topology"
	"repro/internal/vec"
)

// buildTask constructs a small non-IID image task shared by the tests.
func buildTask(t *testing.T, nodes int, seed uint64) (*datasets.Dataset, [][]int) {
	t.Helper()
	rng := vec.NewRNG(seed)
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Channels: 1, Height: 8, Width: 8,
		TrainPerClass: 40, TestPerClass: 10,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := datasets.PartitionShards(ds, nodes, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds, parts
}

type algo int

const (
	algoFull algo = iota
	algoRandom
	algoJWINS
	algoChoco
)

// buildNodes builds the raw32 fleet most tests run.
func buildNodes(t *testing.T, kind algo, ds *datasets.Dataset, parts [][]int, seed uint64) []core.Node {
	return buildNodesWithCodec(t, kind, ds, parts, seed, codec.Raw32{})
}

// buildNodesWithCodec builds one node of kind per partition, every node with
// the float codec fc.
func buildNodesWithCodec(t *testing.T, kind algo, ds *datasets.Dataset, parts [][]int, seed uint64, fc codec.FloatCodec) []core.Node {
	t.Helper()
	opts := core.TrainOpts{LR: 0.05, LocalSteps: 2}
	rootRNG := vec.NewRNG(seed)
	var nodes []core.Node
	for i := range parts {
		nodeRNG := rootRNG.Split()
		model := nn.NewMLP(64, 24, 4, nodeRNG)
		loader := datasets.NewLoader(ds, parts[i], 8, nodeRNG.Split())
		var (
			n   core.Node
			err error
		)
		switch kind {
		case algoFull:
			n, err = core.NewFullSharing(i, model, loader, opts, fc)
		case algoRandom:
			n, err = core.NewRandomSampling(i, model, loader, opts, 0.37, fc, nodeRNG.Split())
		case algoJWINS:
			cfg := core.DefaultJWINSConfig()
			cfg.FloatCodec = fc
			n, err = core.NewJWINS(i, model, loader, opts, cfg, nodeRNG.Split())
		case algoChoco:
			n, err = core.NewChoco(i, model, loader, opts, core.ChocoConfig{Fraction: 0.2, Gamma: 0.2, FloatCodec: fc})
		}
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	return nodes
}

func runAlgo(t *testing.T, kind algo, rounds int) *Result {
	t.Helper()
	const n = 8
	ds, parts := buildTask(t, n, 42)
	nodes := buildNodes(t, kind, ds, parts, 7)
	g, err := topology.Regular(n, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{
		Nodes:    nodes,
		Topology: topology.NewStatic(g),
		TestSet:  ds,
		Config:   Config{Rounds: rounds, EvalEvery: rounds, Parallelism: 2},
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFullSharingLearns(t *testing.T) {
	res := runAlgo(t, algoFull, 30)
	if res.FinalAccuracy < 0.6 {
		t.Fatalf("full-sharing accuracy %.2f, want > 0.6 (chance 0.25)", res.FinalAccuracy)
	}
}

func TestJWINSLearns(t *testing.T) {
	res := runAlgo(t, algoJWINS, 30)
	if res.FinalAccuracy < 0.6 {
		t.Fatalf("JWINS accuracy %.2f, want > 0.6", res.FinalAccuracy)
	}
}

func TestRandomSamplingLearns(t *testing.T) {
	res := runAlgo(t, algoRandom, 30)
	if res.FinalAccuracy < 0.45 {
		t.Fatalf("random sampling accuracy %.2f, want > 0.45", res.FinalAccuracy)
	}
}

func TestChocoLearns(t *testing.T) {
	res := runAlgo(t, algoChoco, 30)
	if res.FinalAccuracy < 0.45 {
		t.Fatalf("CHOCO accuracy %.2f, want > 0.45", res.FinalAccuracy)
	}
}

// TestJWINSSavesBytes: the headline claim — JWINS transfers far fewer bytes
// than full-sharing over the same number of rounds.
func TestJWINSSavesBytes(t *testing.T) {
	full := runAlgo(t, algoFull, 10)
	jwins := runAlgo(t, algoJWINS, 10)
	ratio := float64(jwins.TotalBytes) / float64(full.TotalBytes)
	if ratio > 0.65 {
		t.Fatalf("JWINS used %.0f%% of full-sharing bytes, expected < 65%%", ratio*100)
	}
	t.Logf("bytes: full %d, JWINS %d (%.0f%% savings)", full.TotalBytes, jwins.TotalBytes, (1-ratio)*100)
}

// TestMetadataShareIsSmall: with gamma compression, metadata must be a small
// fraction of total traffic (Figure 9's point).
func TestMetadataShareIsSmall(t *testing.T) {
	res := runAlgo(t, algoJWINS, 10)
	metaFrac := float64(res.MetaBytes) / float64(res.TotalBytes)
	if metaFrac > 0.25 {
		t.Fatalf("metadata is %.0f%% of traffic, expected well below 25%%", metaFrac*100)
	}
}

func TestEngineDeterminism(t *testing.T) {
	a := runAlgo(t, algoJWINS, 5)
	b := runAlgo(t, algoJWINS, 5)
	if a.TotalBytes != b.TotalBytes {
		t.Fatalf("bytes differ across identical runs: %d vs %d", a.TotalBytes, b.TotalBytes)
	}
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatal("round counts differ")
	}
	for i := range a.Rounds {
		if a.Rounds[i].TrainLoss != b.Rounds[i].TrainLoss {
			t.Fatalf("round %d train loss differs: %v vs %v", i, a.Rounds[i].TrainLoss, b.Rounds[i].TrainLoss)
		}
	}
}

func TestTargetAccuracyStopping(t *testing.T) {
	const n = 8
	ds, parts := buildTask(t, n, 21)
	nodes := buildNodes(t, algoFull, ds, parts, 23)
	g, err := topology.Regular(n, 4, vec.NewRNG(25))
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{
		Nodes:    nodes,
		Topology: topology.NewStatic(g),
		TestSet:  ds,
		Config: Config{
			Rounds: 100, EvalEvery: 2, TargetAccuracy: 0.5, Parallelism: 2,
		},
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToTarget < 0 {
		t.Fatalf("never reached 50%% accuracy (final %.2f)", res.FinalAccuracy)
	}
	if res.RoundsToTarget >= 100 {
		t.Fatal("did not stop early")
	}
	if res.BytesToTarget <= 0 || res.TimeToTarget <= 0 {
		t.Fatalf("missing target metrics: %+v", res)
	}
	t.Logf("reached 50%% in %d rounds, %d bytes", res.RoundsToTarget, res.BytesToTarget)
}

func TestDynamicTopologyRun(t *testing.T) {
	const n = 8
	ds, parts := buildTask(t, n, 31)
	nodes := buildNodes(t, algoJWINS, ds, parts, 33)
	eng := &Engine{
		Nodes:    nodes,
		Topology: topology.NewSeededDynamic(n, 4, 35),
		TestSet:  ds,
		Config:   Config{Rounds: 10, EvalEvery: 10, Parallelism: 2},
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.FinalAccuracy) {
		t.Fatal("no evaluation recorded")
	}
}

func TestSimulatedClockAdvances(t *testing.T) {
	res := runAlgo(t, algoFull, 5)
	prev := 0.0
	for _, rm := range res.Rounds {
		if rm.SimTime <= prev {
			t.Fatalf("simulated time not monotone: %v after %v", rm.SimTime, prev)
		}
		prev = rm.SimTime
	}
}

func TestMeanAlphaRecorded(t *testing.T) {
	res := runAlgo(t, algoJWINS, 6)
	for _, rm := range res.Rounds {
		if math.IsNaN(rm.MeanAlpha) || rm.MeanAlpha <= 0 || rm.MeanAlpha > 1 {
			t.Fatalf("mean alpha %v out of range", rm.MeanAlpha)
		}
	}
	full := runAlgo(t, algoFull, 2)
	if !math.IsNaN(full.Rounds[0].MeanAlpha) {
		t.Fatal("full-sharing should have NaN mean alpha")
	}
}

func TestEngineValidation(t *testing.T) {
	eng := &Engine{}
	if _, err := eng.Run(); err == nil {
		t.Fatal("empty engine accepted")
	}
}
