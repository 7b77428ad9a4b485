package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/topology"
	"repro/internal/vec"
)

// servedMatchesDecode fails unless got, the vector the cache served for buf,
// is exactly what decoding buf yields: Dim, Seed, the nil-ness and elements
// of Indices, and the bits of every value.
func servedMatchesDecode(t *testing.T, got codec.SparseVector, buf []byte) {
	t.Helper()
	want := decodeRef(t, buf)
	if got.Dim != want.Dim || got.Seed != want.Seed {
		t.Fatalf("served (dim %d, seed %d), decode (dim %d, seed %d)", got.Dim, got.Seed, want.Dim, want.Seed)
	}
	if (got.Indices == nil) != (want.Indices == nil) {
		t.Fatalf("served indices nil %v, decoded indices nil %v", got.Indices == nil, want.Indices == nil)
	}
	if len(got.Indices) != len(want.Indices) {
		t.Fatalf("served %d indices, decode %d", len(got.Indices), len(want.Indices))
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			t.Fatalf("index %d: served %d, decode %d", i, got.Indices[i], want.Indices[i])
		}
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("served %d values, decode %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if math.Float32bits(got.Values[i]) != math.Float32bits(want.Values[i]) {
			t.Fatalf("value %d: served %x, decode %x", i, math.Float32bits(got.Values[i]), math.Float32bits(want.Values[i]))
		}
	}
}

// TestPublishedVectorMatchesDecode: what every algorithm's Share publishes is
// what a recipient decoding the bytes would get, for sparse, seeded and dense
// payloads under both codecs. All cases share one cache, reset between
// shares as the synchronous engine resets it, so published entries recycle
// across kinds; the scratch list is poisoned after each Share, so a vector
// that aliases call scratch instead of copying it shows.
func TestPublishedVectorMatchesDecode(t *testing.T) {
	ds := tinyDataset(t)
	opts := TrainOpts{LR: 0.1, LocalSteps: 1}
	jwins := func(alpha float64, fc codec.FloatCodec) func(int, *stubModel) (Node, error) {
		cfg := DefaultJWINSConfig()
		cfg.Alphas, cfg.FloatCodec = FixedAlpha(alpha), fc
		return func(id int, m *stubModel) (Node, error) {
			return NewJWINS(id, m, stubLoader(t, ds), opts, cfg, vec.NewRNG(uint64(500+id)))
		}
	}
	full := func(fc codec.FloatCodec) func(int, *stubModel) (Node, error) {
		return func(id int, m *stubModel) (Node, error) { return NewFullSharing(id, m, stubLoader(t, ds), opts, fc) }
	}
	random := func(fraction float64, fc codec.FloatCodec) func(int, *stubModel) (Node, error) {
		return func(id int, m *stubModel) (Node, error) {
			return NewRandomSampling(id, m, stubLoader(t, ds), opts, fraction, fc, vec.NewRNG(uint64(500+id)))
		}
	}
	choco := func(fraction float64, fc codec.FloatCodec) func(int, *stubModel) (Node, error) {
		return func(id int, m *stubModel) (Node, error) {
			return NewChoco(id, m, stubLoader(t, ds), opts, ChocoConfig{Fraction: fraction, Gamma: 0.5, FloatCodec: fc})
		}
	}
	dc := &DecodeCache{}
	for _, fc := range []codec.FloatCodec{codec.Raw32{}, codec.PlaneFlate32{}} {
		for _, c := range []struct {
			name  string
			build func(int, *stubModel) (Node, error)
		}{
			{"jwins-sparse", jwins(0.3, fc)},
			{"jwins-full-share", jwins(1, fc)},
			{"full-sharing", full(fc)},
			{"random-sampling-seeded", random(0.37, fc)},
			{"random-sampling-dense", random(1, fc)},
			{"choco-sparse", choco(0.2, fc)},
			{"choco-dense", choco(1, fc)},
		} {
			t.Run(fmt.Sprintf("%s/%s", c.name, fc.Name()), func(t *testing.T) {
				const id = 3
				params := make([]float64, 1237)
				r := vec.NewRNG(11)
				for j := range params {
					params[j] = r.NormFloat64()
				}
				params[5], params[6] = math.Copysign(0, -1), math.SmallestNonzeroFloat32
				nd, err := c.build(id, &stubModel{params: params})
				if err != nil {
					t.Fatal(err)
				}
				nd.(DecodeCacheUser).SetDecodeCache(dc)
				for round := 0; round < 2; round++ {
					dc.Reset()
					h0, m0 := dc.Stats()
					buf, _, err := nd.Share(round)
					if err != nil {
						t.Fatal(err)
					}
					poisonScratchList()
					e := dc.acquire(id, buf)
					if e.err != nil {
						t.Fatal(e.err)
					}
					servedMatchesDecode(t, e.sv, buf)
					dc.release(e)
					if h, m := dc.Stats(); h-h0 != 1 || m-m0 != 0 {
						t.Fatalf("round %d: (%d hits, %d misses), want (1, 0)", round, h-h0, m-m0)
					}
				}
			})
		}
	}
}

// TestDecodeCachePublish holds publish to its one rule: it fills a sender's
// slot only while the cache holds no entry for that sender.
func TestDecodeCachePublish(t *testing.T) {
	// published returns a payload and the vector it encodes, in a buffer the
	// caller may overwrite after publishing it.
	published := func(seed float64) ([]byte, codec.SparseVector) {
		buf := testPayload(t, 48, seed)
		return buf, decodeRef(t, buf)
	}
	c := &DecodeCache{}
	check := func(wantH, wantM int64) {
		t.Helper()
		if h, m := c.Stats(); h != wantH || m != wantM {
			t.Fatalf("stats (%d hits, %d misses), want (%d, %d)", h, m, wantH, wantM)
		}
	}

	// An empty slot is filled: the first acquire is a hit on the copy, even
	// after the publisher overwrote its vector.
	first, sv := published(1)
	c.publish(2, first, sv)
	for i := range sv.Values {
		sv.Values[i] = float32(math.NaN())
	}
	check(0, 0)
	if c.Len() != 1 {
		t.Fatalf("%d live entries after publish, want 1", c.Len())
	}
	e1 := c.acquire(2, first)
	servedMatchesDecode(t, e1.sv, first)
	check(1, 0)

	// A held slot ignores a publish; the older entry is still served.
	second, sv2 := published(2)
	c.publish(2, second, sv2)
	if c.Len() != 1 || c.slots[2] != e1 {
		t.Fatal("publish replaced the sender's entry")
	}
	if again := c.acquire(2, first); again != e1 {
		t.Fatal("the older entry was not served after an ignored publish")
	} else {
		c.release(again)
	}
	check(2, 0)

	// After a reset the slot fills again; the entry held across the reset
	// stays valid until it is released.
	c.Reset()
	third, sv3 := published(3)
	c.publish(2, third, sv3)
	if c.Len() != 1 || c.slots[2] == e1 {
		t.Fatal("publish after a reset did not fill the slot")
	}
	servedMatchesDecode(t, e1.sv, first)
	c.release(e1)
	if len(c.free) != 1 || c.free[0] != e1 {
		t.Fatal("the entry held across the reset was not recycled at its release")
	}
	pub := c.slots[2]
	e3 := c.acquire(2, third)
	if e3 != pub {
		t.Fatal("acquire after publish missed the published entry")
	}
	servedMatchesDecode(t, e3.sv, third)
	c.release(e3)
	check(3, 0)

	// A different payload from the same sender misses, decodes and retires
	// the published entry.
	e2 := c.acquire(2, second)
	if e2 == pub || !pub.dead || c.slots[2] != e2 {
		t.Fatal("a different payload did not replace the published entry")
	}
	servedMatchesDecode(t, e2.sv, second)
	c.release(e2)
	check(3, 1)
}

// BenchmarkAggregatePublished times one node aggregating four neighbours'
// payloads at the movielens dimension (45,221), for a dense flate32 full
// share and a sparse JWINS share: `decode` serves payloads nobody published,
// so every acquire decodes (the first recipient's path without publishing);
// `published` publishes each sender's vector into the emptied cache first,
// the copy counted in the arm, as a Share does before the round aggregates.
func BenchmarkAggregatePublished(b *testing.B) {
	const dim, senders = 45221, 4
	ds := tinyDataset(b)
	opts := TrainOpts{LR: 0.1, LocalSteps: 1}
	jcfg := DefaultJWINSConfig()
	jcfg.Alphas = FixedAlpha(0.3)
	for _, kind := range []struct {
		name  string
		build func(id int, m *stubModel) (Node, error)
	}{
		{"dense-flate32", func(id int, m *stubModel) (Node, error) {
			return NewFullSharing(id, m, stubLoader(b, ds), opts, codec.PlaneFlate32{})
		}},
		{"jwins-sparse", func(id int, m *stubModel) (Node, error) {
			return NewJWINS(id, m, stubLoader(b, ds), opts, jcfg, vec.NewRNG(uint64(500+id)))
		}},
	} {
		nodes := make([]Node, senders+1)
		msgs := map[int][]byte{}
		svs := map[int]codec.SparseVector{}
		w := topology.Weights{Self: 0.2, Neighbor: map[int]float64{}}
		for id := range nodes {
			params := make([]float64, dim)
			r := vec.NewRNG(uint64(100 + id))
			for j := range params {
				params[j] = r.NormFloat64()
			}
			nd, err := kind.build(id, &stubModel{params: params})
			if err != nil {
				b.Fatal(err)
			}
			nodes[id] = nd
			buf, _, err := nd.Share(0)
			if err != nil {
				b.Fatal(err)
			}
			if id > 0 {
				msgs[id], svs[id], w.Neighbor[id] = buf, decodeRef(b, buf), 0.2
			}
		}
		recv, c := nodes[0], &DecodeCache{}
		recv.(DecodeCacheUser).SetDecodeCache(c)
		for _, arm := range []string{"decode", "published"} {
			b.Run(kind.name+"/"+arm, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.Reset()
					if arm == "published" {
						for from, sv := range svs {
							c.publish(from, msgs[from], sv)
						}
					}
					if err := recv.Aggregate(0, w, msgs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
