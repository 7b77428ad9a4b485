package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/digesttest"
	"repro/internal/simulation"
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
