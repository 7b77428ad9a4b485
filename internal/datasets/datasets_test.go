package datasets

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/vec"
)

func testImages(t *testing.T, clients int) *Dataset {
	t.Helper()
	ds, err := SyntheticImages(ImageConfig{
		Classes: 4, Channels: 1, Height: 8, Width: 8,
		TrainPerClass: 20, TestPerClass: 5, Clients: clients,
	}, vec.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSyntheticImagesShape(t *testing.T) {
	ds := testImages(t, 0)
	if len(ds.Train) != 80 || len(ds.Test) != 20 {
		t.Fatalf("sizes: %d train, %d test", len(ds.Train), len(ds.Test))
	}
	if len(ds.Train[0].X) != 64 || len(ds.Train[0].Y) != 1 {
		t.Fatalf("sample shape wrong")
	}
	counts := make([]int, 4)
	for i := range ds.Train {
		counts[ds.Label(i)]++
	}
	for c, n := range counts {
		if n != 20 {
			t.Fatalf("class %d has %d train samples", c, n)
		}
	}
}

func TestSyntheticImagesLearnable(t *testing.T) {
	// A linear classifier should separate smooth class templates easily.
	ds := testImages(t, 0)
	rng := vec.NewRNG(2)
	clf := nn.NewMLP(64, 16, 4, rng)
	idx := make([]int, len(ds.Train))
	for i := range idx {
		idx[i] = i
	}
	loader := NewLoader(ds, idx, 16, rng)
	for step := 0; step < 300; step++ {
		x, y := loader.Next()
		clf.TrainBatch(x, y, 0.1)
	}
	_, acc := Evaluate(ds, clf, 16)
	if acc < 0.8 {
		t.Fatalf("synthetic images not learnable: accuracy %.2f", acc)
	}
}

func TestPartitionShardsNonIID(t *testing.T) {
	ds := testImages(t, 0)
	rng := vec.NewRNG(3)
	parts, err := PartitionShards(ds, 8, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 8 {
		t.Fatalf("parts: %d", len(parts))
	}
	seen := map[int]bool{}
	for node, idx := range parts {
		if len(idx) == 0 {
			t.Fatalf("node %d empty", node)
		}
		classes := map[int]bool{}
		for _, i := range idx {
			if seen[i] {
				t.Fatalf("sample %d assigned twice", i)
			}
			seen[i] = true
			classes[ds.Label(i)] = true
		}
		// 2 shards -> at most 2+1 classes (shard may straddle a boundary).
		if len(classes) > 3 {
			t.Fatalf("node %d sees %d classes, expected few (non-IID)", node, len(classes))
		}
	}
}

func TestPartitionShardsTooMany(t *testing.T) {
	ds := testImages(t, 0)
	if _, err := PartitionShards(ds, 100, 2, vec.NewRNG(1)); err == nil {
		t.Fatal("expected error for too many shards")
	}
}

func TestPartitionByClient(t *testing.T) {
	ds := testImages(t, 10)
	parts, err := PartitionByClient(ds, 5, vec.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	// Each node gets 2 clients; samples of one client stay together.
	clientNode := map[int]int{}
	for node, idx := range parts {
		for _, i := range idx {
			c := ds.TrainClient[i]
			if prev, ok := clientNode[c]; ok && prev != node {
				t.Fatalf("client %d split across nodes %d and %d", c, prev, node)
			}
			clientNode[c] = node
		}
	}
	if len(clientNode) != 10 {
		t.Fatalf("only %d clients assigned", len(clientNode))
	}
}

func TestPartitionByClientErrors(t *testing.T) {
	noClients := testImages(t, 0)
	if _, err := PartitionByClient(noClients, 4, vec.NewRNG(1)); err == nil {
		t.Fatal("expected error without client structure")
	}
	withClients := testImages(t, 4)
	if _, err := PartitionByClient(withClients, 8, vec.NewRNG(1)); err == nil {
		t.Fatal("expected error for more nodes than clients")
	}
}

func TestLoaderCyclesAndShuffles(t *testing.T) {
	ds := testImages(t, 0)
	idx := []int{0, 1, 2, 3, 4}
	loader := NewLoader(ds, idx, 2, vec.NewRNG(7))
	if loader.Size() != 5 || loader.BatchesPerEpoch() != 3 {
		t.Fatalf("size %d batches %d", loader.Size(), loader.BatchesPerEpoch())
	}
	// Drain several epochs; batch sizes must be 2,2,1 repeating.
	sizes := []int{}
	for i := 0; i < 9; i++ {
		x, y := loader.Next()
		if x.Batch() != len(y)/len(ds.Train[0].Y) {
			t.Fatal("x/y size mismatch")
		}
		sizes = append(sizes, x.Batch())
	}
	want := []int{2, 2, 1, 2, 2, 1, 2, 2, 1}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v", sizes)
		}
	}
}

func TestShakespeareLike(t *testing.T) {
	ds, err := ShakespeareLike(TextConfig{SeqLen: 16, Clients: 6, WindowsPerClient: 10}, vec.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Task != TaskSequence || ds.Classes < 20 {
		t.Fatalf("vocab %d, task %v", ds.Classes, ds.Task)
	}
	if len(ds.Train) != 60 {
		t.Fatalf("train %d", len(ds.Train))
	}
	// Targets are inputs shifted by one.
	s := ds.Train[0]
	for i := 0; i < len(s.X)-1; i++ {
		if s.Y[i] != s.X[i+1] {
			t.Fatalf("target not shifted input at %d", i)
		}
	}
	// Ids are within vocabulary.
	for _, v := range s.X {
		if int(v) < 0 || int(v) >= ds.Classes {
			t.Fatalf("id %v out of range", v)
		}
	}
}

func TestMovieLensLike(t *testing.T) {
	ds, err := MovieLensLike(RatingConfig{Users: 10, Items: 50, TrainPerUser: 8, TestPerUser: 2}, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Train) != 80 || len(ds.Test) != 20 {
		t.Fatalf("sizes %d/%d", len(ds.Train), len(ds.Test))
	}
	for _, s := range ds.Train {
		if s.Y[0] < 1 || s.Y[0] > 5 {
			t.Fatalf("rating %v out of range", s.Y[0])
		}
		u, it := int(s.X[0]), int(s.X[1])
		if u < 0 || u >= 10 || it < 0 || it >= 50 {
			t.Fatalf("ids out of range: %v", s.X)
		}
	}
	// No duplicate (user, item) pairs within a user.
	seen := map[[2]int]bool{}
	for _, s := range append(append([]Sample{}, ds.Train...), ds.Test...) {
		key := [2]int{int(s.X[0]), int(s.X[1])}
		if seen[key] {
			t.Fatalf("duplicate rating %v", key)
		}
		seen[key] = true
	}
}

func TestMovieLensLearnable(t *testing.T) {
	ds, err := MovieLensLike(RatingConfig{Users: 10, Items: 40, Rank: 3, TrainPerUser: 25, TestPerUser: 5}, vec.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(11)
	mf := nn.NewMatrixFactorization(10, 40, 4, rng)
	idx := make([]int, len(ds.Train))
	for i := range idx {
		idx[i] = i
	}
	loader := NewLoader(ds, idx, 25, rng)
	for step := 0; step < 600; step++ {
		x, y := loader.Next()
		mf.TrainBatch(x, y, 0.02)
	}
	loss, _ := Evaluate(ds, mf, 16)
	if loss > 0.5 {
		t.Fatalf("MF test loss %v too high on low-rank data", loss)
	}
}

func TestEvaluateEmptyAndBounds(t *testing.T) {
	ds := testImages(t, 0)
	rng := vec.NewRNG(13)
	clf := nn.NewMLP(64, 4, 4, rng)
	loss, acc := Evaluate(ds, clf, 0) // default batch
	if loss <= 0 || acc < 0 || acc > 1 {
		t.Fatalf("loss %v acc %v", loss, acc)
	}
}

// constantModel predicts one class (or rating) for every target and scores
// it the way the models do: correct when within 0.5 of the target.
type constantModel struct{ c float64 }

func (constantModel) ParamCount() int                                   { return 0 }
func (constantModel) CopyParams([]float64)                              {}
func (constantModel) SetParams([]float64)                               {}
func (constantModel) TrainBatch(*nn.Tensor, []float64, float64) float64 { return 0 }
func (m constantModel) EvalBatch(_ *nn.Tensor, y []float64) (float64, int, int) {
	correct := 0
	for _, t := range y {
		if math.Abs(m.c-t) < 0.5 {
			correct++
		}
	}
	return 0, correct, len(y)
}

// TestMajorityRateIsBestConstantAccuracy: on images, sequences and ratings,
// MajorityRate is the accuracy Evaluate gives the best constant prediction.
func TestMajorityRateIsBestConstantAccuracy(t *testing.T) {
	text, err := ShakespeareLike(TextConfig{SeqLen: 16, Clients: 6, WindowsPerClient: 10}, vec.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	ratings, err := MovieLensLike(RatingConfig{Users: 10, Items: 50, TrainPerUser: 8, TestPerUser: 6}, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ds     *Dataset
		lo, hi int // the constant predictions to try
	}{{testImages(t, 0), 0, 3}, {text, 0, text.Classes - 1}, {ratings, 1, 5}} {
		var best float64
		for k := c.lo; k <= c.hi; k++ {
			_, acc := Evaluate(c.ds, constantModel{float64(k)}, 7)
			best = max(best, acc)
		}
		if got := c.ds.MajorityRate(); got != best || got <= 0 {
			t.Fatalf("%s: MajorityRate %v, best constant accuracy %v", c.ds.Name, got, best)
		}
	}
}
