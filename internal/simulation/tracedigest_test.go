package simulation

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/codec"
	"repro/internal/datasets"
	"repro/internal/digesttest"
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
// one event, changes the digest. Both literals were re-recorded against
// commit 1bffa23 when the JWINS accumulator telescoped: a node that leaves
// while waiting shares again on rejoin with no Aggregate between (16 times
// in a deadline run, twice in a bounded-adaptive one), and the parent added
// that abandoned iteration's change to V a second time.
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
		{"deadline", DeadlinePolicy{Factor: 1.5}, "8ece5a82c74c974137c2bc88883f5b03e6976f8491839fbb3bfe43ae571f9c55"},                                     // re-recorded, parent 1bffa23: telescoped JWINS counts a churn re-share's change once
		{"bounded-adaptive", BoundedStalenessPolicy{K: 2, Tau: 2, AdaptiveTau: true}, "285f34893d215cea011f908558a0981d27d7890b08a4ae64b81c863a6615d7b5"}, // re-recorded, parent 1bffa23: telescoped JWINS counts a churn re-share's change once
	} {
		for _, p := range []int{1, 2, 4} {
			var buf bytes.Buffer
			sr, err := trace.NewStreamRecorder(&buf, trace.Header{
				Nodes: n, Rounds: rounds, Source: trace.SourceSim, Policy: tc.policy.Name(),
			})
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
			if got := hex.EncodeToString(sum[:]); got != tc.want && !digesttest.Update(t, tc.want, got) {
				t.Errorf("%s p=%d: trace digest %s (%d events, %d bytes), recorded %s", tc.name, p, got, sr.Len(), buf.Len(), tc.want)
			}
		}
	}
}

// goldenRun executes one recorded 64-node async run under heterogeneous
// profiles, so train-done events chain at staggered times, and returns the
// binary trace bytes.
func goldenRun(t *testing.T, kind algo, fc codec.FloatCodec) []byte {
	t.Helper()
	const (
		n      = 64
		rounds = 3
	)
	ds, parts := buildTask(t, n, 42)
	nodes := buildNodesWithCodec(t, kind, ds, parts, 7, fc)
	g, err := topology.Regular(n, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.Header{
		Nodes: n, Rounds: rounds, Source: trace.SourceSim, Policy: trace.PolicyBarrier,
	})
	eng := &AsyncEngine{
		Nodes:    nodes,
		Topology: topology.NewStatic(g),
		TestSet:  ds,
		Config: AsyncConfig{
			Config: Config{Rounds: rounds, EvalEvery: rounds, Parallelism: 2},
			Het:    Heterogeneity{ComputeSpread: 0.4, BandwidthSpread: 0.3, Seed: 5},
			Record: rec,
		},
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAsyncCodecDigest pins the binary trace of goldenRun — a 64-node
// heterogeneous barrier run — for every algorithm crossed with every float
// codec to the SHA-256 recorded at commit e4d27e6, the last commit whose
// scheduler still carried the batched share/aggregate dispatch. Every send's
// byte breakdown and every aggregate's lag record is in the trace, so a
// dispatch change that moves a payload byte, a commit point or an event's
// order changes the digest.
func TestAsyncCodecDigest(t *testing.T) {
	algos := []struct {
		name string
		kind algo
	}{
		{"full-sharing", algoFull},
		{"random-sampling", algoRandom},
		{"jwins", algoJWINS},
		{"choco", algoChoco},
	}
	codecs := []struct {
		name string
		fc   codec.FloatCodec
	}{
		{"raw32", codec.Raw32{}},
		{"flate32", codec.PlaneFlate32{}},
	}
	want := map[string]string{
		"full-sharing/raw32":      "4af6d4002e306908184bd4b42c0edc60d5e259f77565f225df91a926ac450bc4",
		"full-sharing/flate32":    "74e6ea9cff858c53d86e783e0a1c955237a8177bb3876f70644d42ad59f53033",
		"random-sampling/raw32":   "f47676bf1ff7d5e7597ff8c4a5e80d300be0e963fe41658a4fd88a5425da3348",
		"random-sampling/flate32": "e529248d3e1a04ac58bee428a89544306d7e608578e9ea066ddda2a7e1decc8f",
		"jwins/raw32":             "361f6db07b20b02e324b52e7144c1f577da75d89a988363fff2aa87e5dfa1aa1",
		"jwins/flate32":           "e04d9fa43a281e16c8d4b1aa7fb388c665f8168d6f6d69b7e8d7f102b1d56743",
		"choco/raw32":             "4899639ca2b110190635430424b8b4f19032c4c4834e0713726ce342a51f64ff",
		"choco/flate32":           "4f15117614a2bac40f5fa0aacc1ca93a1413cdcc2d76f973cc826b3f62f9ac94",
	}
	for _, al := range algos {
		for _, cd := range codecs {
			name := al.name + "/" + cd.name
			t.Run(name, func(t *testing.T) {
				jtb := goldenRun(t, al.kind, cd.fc)
				sum := sha256.Sum256(jtb)
				if got := hex.EncodeToString(sum[:]); got != want[name] && !digesttest.Update(t, want[name], got) {
					t.Errorf("trace digest %s (%d bytes), recorded %s", got, len(jtb), want[name])
				}
			})
		}
	}
}
