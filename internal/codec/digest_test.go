package codec

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/digesttest"
	"repro/internal/vec"
)

// wireDigestVectors is the fixed share sequence behind TestWireDigests: the
// degenerate vectors of TestPlaneFlate32Degenerate, then a Gaussian and a
// heavy-tailed vector at each payload size the workloads send (6 and 700 are
// micro models, 14 000 a movielens top-k share, 45 221 the dense movielens
// model, 200 000 a multi-block plane).
func wireDigestVectors() [][]float32 {
	vs := [][]float32{nil, repeat(-0.0173, 1), repeat(0, 50), repeat(0.0421, 50), specialValues(),
		repeat(0, 100000), repeat(0.0421, 100000), gaussianValues(20000, 0.05, 10)}
	for i, n := range []int{6, 700, 14000, 45221, 200000} {
		vs = append(vs, gaussianValues(n, 0.05, uint64(40+i)), heavyTailedValues(n, uint64(50+i)))
	}
	return vs
}

// TestWireDigests pins the bytes on the wire: one SHA-256 per float codec and
// index mode over the payloads EncodeSparse writes for wireDigestVectors. The
// literals were produced by the encoder of commit 5f64609 (PR 23), before
// flate32 wrote any block itself. A change that claims "same bytes" passes
// them unmodified; a change to a wire format re-records exactly the literals
// it means to move and says so.
func TestWireDigests(t *testing.T) {
	want := map[string]string{
		"flate32/dense": "964e33df84fb6553fa3c82ac7ee563271573658c735343f3cc7dc44c4c737095",
		"flate32/gamma": "b4abc7bcf5732fc2828e5656f3b8533f94e9c21b7aaadd0158297a78193f2277",
		"flate32/seed":  "1e969175b76721690f4512ea5de7acc3a2fe2e38bf3f461ff777a7e2474129af",
		"raw32/dense":   "ed27cdc27b2dffcf009f8101c19270ea8cd8c6ef8ca17a6efefd68ef3627f83b",
		"raw32/gamma":   "8e2b01388d01cbbae7a38ccb90732419623d0f8ceb9384f878e11d64581713b5",
		"raw32/seed":    "77cdc56f3b7eb6e9ff477005770a2628cfbe7217a7b01a8ba812a8465c918185",
	}
	vectors := wireDigestVectors()
	for _, fc := range []FloatCodec{PlaneFlate32{}, Raw32{}} {
		for mode, modeName := range []string{"dense", "gamma", "seed"} {
			h := sha256.New()
			for i, vals := range vectors {
				sv := SparseVector{Dim: len(vals), Values: vals}
				switch IndexMode(mode) {
				case IndexGamma:
					sv.Dim = 2*len(vals) + 1
					sv.Indices = vec.NewRNG(uint64(60+i)).SampleWithoutReplacement(sv.Dim, len(vals))
				case IndexSeed:
					sv.Dim, sv.Seed = 2*len(vals)+1, uint64(70+i)
				}
				buf, _, err := EncodeSparse(sv, IndexMode(mode), fc)
				if err != nil {
					t.Fatalf("%s/%s vector %d: %v", fc.Name(), modeName, i, err)
				}
				h.Write(buf)
			}
			name := fc.Name() + "/" + modeName
			if got := hex.EncodeToString(h.Sum(nil)); got != want[name] && !digesttest.Update(t, want[name], got) {
				t.Errorf("%s: digest %s, want %s", name, got, want[name])
			}
		}
	}
}
