// Dyntopo: 96 JWINS nodes train through the event-driven scheduler while the
// random regular communication graph re-randomizes every simulated-time
// epoch. The demo prints a rotation ticker with each epoch's spectral gap
// and neighbor turnover, records the executed schedule as a trace, and
// replays it to show that rotated runs keep the engine's exact
// record→replay parity.
//
// Why rotate at all: any one sparse graph mixes slowly (its spectral gap
// shrinks as the fleet grows), but a *fresh* random regular graph each epoch
// behaves like an expander on average, so parameter information reaches the
// whole fleet in far fewer iterations. Compare the static arm's gap printed
// at the end with the per-epoch gaps of the rotated run.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		nodes    = 96
		degree   = 4
		rounds   = 8
		seed     = 7
		epochSec = 0.05 // ~2 iterations per epoch under the default time model
	)

	// 1. A non-IID image task sharded over 96 nodes (tiny per-node models so
	// the demo runs in seconds).
	root := vec.NewRNG(seed)
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Channels: 1, Height: 8, Width: 8,
		TrainPerClass: 4 * nodes, TestPerClass: nodes,
	}, root)
	if err != nil {
		return err
	}
	parts, err := datasets.PartitionShards(ds, nodes, 2, root)
	if err != nil {
		return err
	}
	fleet, err := buildFleet(ds, parts, seed)
	if err != nil {
		return err
	}

	// 2. The epoch-rotated topology: a deterministic random-access d-regular
	// generator wrapped in an EpochProvider. Every epochSec of simulated
	// time, the engine processes a topology-change event, new edges exchange
	// cached state, and the mixing metrics refresh.
	provider := topology.NewEpochProvider(
		topology.NewSeededDynamic(nodes, degree, seed), nodes, epochSec)

	// 3. Run with a straggler tail and some churn, recording the schedule.
	rec := trace.NewRecorder(trace.Header{
		Nodes: nodes, Rounds: rounds, Source: trace.SourceSim, Policy: trace.PolicyBarrier,
		Meta: map[string]string{"epoch_sec": fmt.Sprint(epochSec)},
	})
	engine := &simulation.AsyncEngine{
		Nodes:    fleet,
		Topology: provider,
		TestSet:  ds,
		Config: simulation.AsyncConfig{
			Config: simulation.Config{Rounds: rounds, EvalEvery: 4, EvalNodes: 8},
			Het:    simulation.Heterogeneity{ComputeSpread: 0.4, Seed: seed},
			Churn:  simulation.GenerateChurn(nodes, 0.1, 0.05, 0.2, 0.05, seed),
			Record: rec,
		},
		OnRound: func(rm simulation.RoundMetrics) {
			if !math.IsNaN(rm.TestAcc) {
				fmt.Printf("iter %2d  t=%5.2fs  epoch %2d  gap %.4f  turnover %.2f  acc %5.1f%%\n",
					rm.Round+1, rm.SimTime, rm.Epoch, rm.SpectralGap, rm.NeighborTurnover, rm.TestAcc*100)
			}
		},
	}
	res, err := engine.Run()
	if err != nil {
		return err
	}
	fmt.Printf("\nrotated run: %d epochs, spectral gap mean %.4f (min %.4f), turnover %.2f, %.1f%% accuracy\n",
		res.Epochs, res.SpectralGapMean, res.SpectralGapMin, res.TurnoverMean, res.FinalAccuracy*100)

	// 4. Replay the recorded schedule: rotated runs stay event- and
	// byte-identical, topology changes included.
	rp, err := trace.NewReplayer(rec.Trace())
	if err != nil {
		return err
	}
	rec2 := trace.NewRecorder(rec.Trace().Header)
	fleet2, err := buildFleet(ds, parts, seed)
	if err != nil {
		return err
	}
	replayEngine := &simulation.AsyncEngine{
		Nodes: fleet2,
		Topology: topology.NewEpochProvider(
			topology.NewSeededDynamic(nodes, degree, seed), nodes, epochSec),
		TestSet: ds,
		Config: simulation.AsyncConfig{
			Config: simulation.Config{Rounds: rounds, EvalEvery: 4, EvalNodes: 8},
			Replay: rp,
			Record: rec2,
		},
	}
	repRes, err := replayEngine.Run()
	if err != nil {
		return err
	}
	diff := trace.Compare(rec2.Trace(), rec.Trace())
	fmt.Printf("replay: %d events, in sync %v (max time error %.6fs), ledger delta %d bytes\n",
		rec2.Len(), diff.InSync(), diff.TimeErrMax, repRes.TotalBytes-res.TotalBytes)

	// 5. The static reference: same fleet seed, one pinned graph. Its single
	// spectral gap is what the rotation buys its way out of.
	fleet3, err := buildFleet(ds, parts, seed)
	if err != nil {
		return err
	}
	g, _ := topology.NewSeededDynamic(nodes, degree, seed).Round(0)
	staticRes, err := (&simulation.AsyncEngine{
		Nodes:    fleet3,
		Topology: topology.NewStatic(g),
		TestSet:  ds,
		Config: simulation.AsyncConfig{
			Config: simulation.Config{Rounds: rounds, EvalEvery: 4, EvalNodes: 8},
			Het:    simulation.Heterogeneity{ComputeSpread: 0.4, Seed: seed},
		},
	}).Run()
	if err != nil {
		return err
	}
	fmt.Printf("static reference: spectral gap %.4f, %.1f%% accuracy\n",
		staticRes.SpectralGapMean, staticRes.FinalAccuracy*100)
	return nil
}

// buildFleet creates one JWINS node per partition from shared initial weights.
func buildFleet(ds *datasets.Dataset, parts [][]int, seed uint64) ([]core.Node, error) {
	root := vec.NewRNG(seed + 100)
	template := nn.NewMLP(64, 24, 4, root.Split())
	initial := make([]float64, template.ParamCount())
	template.CopyParams(initial)

	opts := core.TrainOpts{LR: 0.05, LocalSteps: 2}
	fleet := make([]core.Node, 0, len(parts))
	for i := range parts {
		nodeRNG := root.Split()
		model := nn.NewMLP(64, 24, 4, nodeRNG)
		model.SetParams(initial)
		loader := datasets.NewLoader(ds, parts[i], 8, nodeRNG.Split())
		node, err := core.NewJWINS(i, model, loader, opts, core.DefaultJWINSConfig(), nodeRNG.Split())
		if err != nil {
			return nil, err
		}
		fleet = append(fleet, node)
	}
	return fleet, nil
}
