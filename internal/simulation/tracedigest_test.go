package simulation

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/datasets"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// buildFleetTask is buildTask sized for fleets past 64 nodes: every node gets
// at least one full batch of the non-IID image task.
func buildFleetTask(t *testing.T, nodes int, seed uint64) (*datasets.Dataset, [][]int) {
	t.Helper()
	rng := vec.NewRNG(seed)
	ds, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Channels: 1, Height: 8, Width: 8,
		TrainPerClass: 4 * nodes, TestPerClass: 10,
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

// fleetEngineFor builds an n-node JWINS AsyncEngine on an epoch-rotated
// random 4-regular topology.
func fleetEngineFor(t *testing.T, n, rounds int, epochSec float64, mut func(*AsyncConfig)) *AsyncEngine {
	t.Helper()
	ds, parts := buildFleetTask(t, n, 42)
	nodes := buildNodes(t, algoJWINS, ds, parts, 7)
	cfg := AsyncConfig{Config: Config{Rounds: rounds, EvalEvery: 4}}
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

// TestAsyncTraceDigest pins the binary trace of two 64-node runs that cross
// every scheduler path a liveness change or an epoch boundary touches —
// churn, epoch rotation, message drops, and a non-barrier policy — to the
// SHA-256 recorded at the commit before onLeave/onJoin stopped re-checking
// the whole fleet and the emission floor stopped being a scan. Aggregation
// order, sequence numbers and every timestamp are in the trace, so a recheck
// that visits neighbours in another order, or a floor that lags the scan by
// one event, changes the digest.
func TestAsyncTraceDigest(t *testing.T) {
	const (
		n        = 64
		rounds   = 10
		epochSec = 0.05
	)
	for _, tc := range []struct {
		name   string
		policy AggregationPolicy
		want   string
	}{
		{"deadline", DeadlinePolicy{Factor: 1.5}, "20e2ec99f4c29324df0ec5966bf01be030582426e425b074c512c7743cd6d146"},
		{"bounded-adaptive", BoundedStalenessPolicy{K: 2, Tau: 2, AdaptiveTau: true}, "5d6e3216a09f76fa758a464d1eaa65cfdce88044e47c8a4977a7661071b72d76"},
	} {
		for _, p := range []int{1, 2, 4} {
			var buf bytes.Buffer
			sr, err := trace.NewStreamRecorder(&buf, trace.Header{
				Nodes: n, Rounds: rounds, Source: trace.SourceSim, Policy: tc.policy.Name(),
			}, true)
			if err != nil {
				t.Fatal(err)
			}
			eng := fleetEngineFor(t, n, rounds, epochSec, func(cfg *AsyncConfig) {
				cfg.Parallelism = p
				cfg.Policy = tc.policy
				cfg.Het = Heterogeneity{ComputeSpread: 0.4, BandwidthSpread: 0.3, LatencySpread: 0.2, Seed: 5}
				cfg.Churn = GenerateChurn(n, 0.3, 0.02, 0.2, 0.05, 77)
				cfg.DropProb = 0.1
				cfg.FaultSeed = 3
				cfg.EvalSample = 8
				cfg.EvalSeed = 11
				cfg.Record = sr
			})
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := sr.Close(); err != nil {
				t.Fatal(err)
			}
			if len(res.Rounds) != rounds || res.Epochs < 3 {
				t.Fatalf("%s p=%d: %d/%d rows over %d epochs: the run no longer covers rotation", tc.name, p, len(res.Rounds), rounds, res.Epochs)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s p=%d: trace digest %s (%d events, %d bytes), recorded %s", tc.name, p, got, sr.Len(), buf.Len(), tc.want)
			}
		}
	}
}
