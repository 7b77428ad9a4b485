package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/datasets"
	"repro/internal/digesttest"
	"repro/internal/powergossip"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/vec"
)

// syncRowDigests are the SHA-256 of every synchronous micro run of a dataset
// over {full, random, jwins, choco} × {flate32, raw32} × {static, Dynamic} ×
// seeds {1, 2} (shakespeare at seed 1 only, to keep the test short): every
// field of every result row, floats by their bits, and the run's byte ledger.
// Recorded at 2884a64, before the nn call buffers moved out of the layers into
// shared workspaces; the shakespeare digest is the hash-level guard on the
// Embedding and LSTM path. Never re-record them for a change that claims the
// same arithmetic.
var syncRowDigests = map[string]string{
	"cifar10":     "29b604fdb9b90d9548a9d9406c33f4dcd6f4a10f88525a14615e855035e56af6", // re-recorded, parent 08c45e3: a synchronous Dynamic run reads the seeded graph sequence topology.NewSeededDynamic gives the async epochs; the static arms hash as before
	"femnist":     "da328448dd8b265ca07879894bde3a05410587acba946a0a6509d145391b93d8", // re-recorded, parent 08c45e3: a synchronous Dynamic run reads the seeded graph sequence topology.NewSeededDynamic gives the async epochs; the static arms hash as before
	"shakespeare": "123b303224f6f0aea089d5ccc960621a83ef5f24502089cd8d4862e0024072eb", // re-recorded, parent 08c45e3: a synchronous Dynamic run reads the seeded graph sequence topology.NewSeededDynamic gives the async epochs; the static arms hash as before
	"movielens":   "f35342a0c24552a3c48f80c112c99bf4de93dc73bfadd04a83c73c4e9984aa87", // re-recorded, parent 08c45e3: a synchronous Dynamic run reads the seeded graph sequence topology.NewSeededDynamic gives the async epochs; the static arms hash as before
}

// TestSyncRowDigest holds the synchronous engine's result rows bit for bit
// over every model family the zoo builds, both wire codecs and both topology
// modes: where TestGoldenRows pins the final metrics of one arm each, this
// pins every round of every arm.
func TestSyncRowDigest(t *testing.T) {
	codecs := []codec.FloatCodec{codec.PlaneFlate32{}, codec.Raw32{}}
	algos := []Algo{AlgoFull, AlgoRandom, AlgoJWINS, AlgoChoco}
	for _, dataset := range []string{"cifar10", "femnist", "shakespeare", "movielens"} {
		t.Run(dataset, func(t *testing.T) {
			seeds := []uint64{1, 2}
			if dataset == "shakespeare" {
				seeds = seeds[:1]
			}
			h := sha256.New()
			for _, seed := range seeds {
				w, err := NewWorkload(dataset, Micro, 0, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range algos {
					for _, fc := range codecs {
						for _, dynamic := range []bool{false, true} {
							res, err := Run(RunSpec{Workload: w, Algo: AlgoSpec{Kind: algo, Codec: fc}, Dynamic: dynamic, Seed: seed})
							if err != nil {
								t.Fatalf("%s/%s/%v/seed %d: %v", algo, fc.Name(), dynamic, seed, err)
							}
							hashResult(h, res)
						}
					}
				}
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), syncRowDigests[dataset]; got != want && !digesttest.Update(t, want, got) {
				t.Errorf("row digest moved:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// powerGossipRowDigest is the SHA-256 of extPowerGossip's own driver loop at
// micro scale on cifar10, seeds {1, 2}: each round's mean loss and bytes, then
// every node's final parameters and its test loss and accuracy, floats by
// their bits. Recorded at 4f4ef3d, before GN-LeNet's pooling, norm and ReLU
// glue was rewritten; never re-record it for a change that claims the same
// arithmetic.
const powerGossipRowDigest = "312ec601e679d869c78c4b265bbc018a061784018047574f4e175beb176c8c2b"

// TestPowerGossipRowDigest holds POWERGOSSIP's rounds and final models bit for
// bit: its per-edge driver trains GN-LeNet outside simulation.Run, so
// TestSyncRowDigest does not see it.
func TestPowerGossipRowDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, seed := range []uint64{1, 2} {
		w, err := NewWorkload("cifar10", Micro, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		// extPowerGossip's driver, from its root RNG on.
		root := vec.NewRNG(seed)
		template := w.NewModel(root.Split())
		initial := make([]float64, template.ParamCount())
		template.CopyParams(initial)
		nodes := make([]*powergossip.Node, w.Nodes)
		for i := range nodes {
			nodeRNG := root.Split()
			model := w.NewModel(nodeRNG)
			model.SetParams(initial)
			loader := datasets.NewLoader(w.Dataset, w.Parts[i], w.Batch, nodeRNG.Split())
			if nodes[i], err = powergossip.New(i, model, loader, w.Opts.LR, w.Opts.LocalSteps); err != nil {
				t.Fatal(err)
			}
		}
		g, err := topology.Regular(w.Nodes, w.Degree, vec.NewRNG(seed^0x746f706f))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < w.Rounds; round++ {
			loss, bytes := powergossip.RunRound(nodes, g, powergossip.Config{PowerIterations: 2})
			word(math.Float64bits(loss))
			word(uint64(bytes))
		}
		params := make([]float64, len(initial))
		for _, nd := range nodes {
			nd.Model().CopyParams(params)
			for _, p := range params {
				word(math.Float64bits(p))
			}
			loss, acc := datasets.Evaluate(w.Dataset, nd.Model(), 32)
			word(math.Float64bits(loss))
			word(math.Float64bits(acc))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != powerGossipRowDigest && !digesttest.Update(t, powerGossipRowDigest, got) {
		t.Errorf("powergossip digest moved:\n got  %s\n want %s", got, powerGossipRowDigest)
	}
}

// hashResult writes every field of every row of res, then its byte ledger.
func hashResult(h hash.Hash, res *simulation.Result) {
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	ints := func(vs ...int64) {
		for _, v := range vs {
			word(uint64(v))
		}
	}
	floats := func(vs ...float64) {
		for _, v := range vs {
			word(math.Float64bits(v))
		}
	}
	for _, r := range res.Rounds {
		ints(int64(r.Round))
		floats(r.TrainLoss, r.TestLoss, r.TestAcc)
		ints(r.CumTotalBytes, r.CumModelBytes, r.CumMetaBytes)
		floats(r.SimTime, r.MeanAlpha, r.StaleMean, r.StaleMax, r.StaleP95, r.EffNeighbors, r.DropRate)
		ints(int64(r.Epoch))
		floats(r.SpectralGap, r.NeighborTurnover)
	}
	ints(res.TotalBytes, res.ModelBytes, res.MetaBytes)
}
