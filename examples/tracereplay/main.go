// Tracereplay: record, persist, and replay an async schedule. A JWINS run
// with stragglers and churn executes under the event-driven scheduler with a
// trace recorder attached; the trace round-trips through the on-disk JSONL
// format; and a second engine replays it as the authoritative schedule. The
// demo then proves the property the trace subsystem exists for: the replayed
// run reproduces the original event for event and byte for byte.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/simulation"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const seed = 7

	// 1. Record: the micro CIFAR-10-like workload through the async engine,
	// with a straggler tail and 25% churn shaping the schedule.
	w, err := experiments.NewWorkload("cifar10", experiments.Micro, 0, seed)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(experiments.TraceHeaderFor(w, experiments.AlgoJWINS, 0, seed, false, false, 0))
	recorded, err := experiments.Run(experiments.RunSpec{
		Workload: w, Algo: experiments.AlgoSpec{Kind: experiments.AlgoJWINS},
		Seed: seed, Async: true,
		Het:           simulation.Heterogeneity{ComputeSpread: 0.6, BandwidthSpread: 0.3},
		ChurnFraction: 0.25,
		Recorder:      rec,
	})
	if err != nil {
		return err
	}
	fmt.Printf("recorded: %d nodes, %d rows, %d events, %.1f%% accuracy, %.2fs simulated\n",
		w.Nodes, len(recorded.Rounds), rec.Len(), recorded.FinalAccuracy*100, recorded.SimTime)

	// 2. Persist and reload: the replay works from what survives the wire.
	path := filepath.Join(os.TempDir(), "tracereplay.jsonl")
	if err := trace.WriteFile(path, rec.Trace()); err != nil {
		return err
	}
	defer os.Remove(path)
	reloaded, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	stats := trace.ComputeStats(reloaded)
	fmt.Printf("persisted %s and read it back:\n%s", path, stats)

	// 3. Replay: the trace is the authoritative schedule; heterogeneity and
	// churn knobs are ignored in favour of the recorded times.
	replayRes, replayedTrace, err := experiments.ReplayTrace(reloaded)
	if err != nil {
		return err
	}
	diff := trace.Compare(replayedTrace, reloaded)
	fmt.Printf("replayed: %d rows, %.1f%% accuracy, %.2fs simulated\n",
		len(replayRes.Rounds), replayRes.FinalAccuracy*100, replayRes.SimTime)
	fmt.Printf("parity: %d/%d events matched, time err max %.6fs, byte delta %d\n",
		diff.Matched, stats.Events, diff.TimeErrMax, diff.BytesA-diff.BytesB)
	if diff.InSync() && diff.TimeErrMax == 0 && replayRes.TotalBytes == recorded.TotalBytes {
		fmt.Println("the replay reproduced the recorded schedule exactly.")
	} else {
		return fmt.Errorf("replay diverged from the recording: %+v", diff)
	}
	return nil
}
