// Package datasets provides synthetic stand-ins for the paper's five
// benchmark datasets plus the non-IID partitioning schemes used in its
// evaluation. The real datasets (CIFAR-10, FEMNIST, CelebA, Shakespeare,
// MovieLens) are unavailable offline; these generators reproduce the
// *structure* the experiments depend on — class-templated images with
// per-client styles, character text grouped by client, and low-rank ratings —
// so that non-IID hardness and sparsification behaviour carry over.
package datasets

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nn"
	"repro/internal/vec"
)

// Task discriminates how samples are batched and scored.
type Task int

// Task kinds.
const (
	// TaskImage is single-label image classification (X = pixels, Y = class).
	TaskImage Task = iota + 1
	// TaskSequence is next-token prediction (X = T token ids, Y = T targets).
	TaskSequence
	// TaskRating is recommendation (X = [user, item], Y = rating).
	TaskRating
)

// Sample is one training or test example.
type Sample struct {
	X []float64
	Y []float64
}

// Dataset is a generated task with a shared test set and per-sample client
// attribution for client-grouped partitioning.
type Dataset struct {
	Name       string
	Task       Task
	InputShape []int // per-sample input shape (e.g. [C, H, W], [T], [2])
	Classes    int   // number of classes (vocabulary size for sequences)
	Train      []Sample
	Test       []Sample
	// TrainClient[i] is the client that produced Train[i] (-1 if none).
	TrainClient []int
	// Clients is the number of distinct clients (0 if no client structure).
	Clients int
}

// Label returns the scalar class of train sample i (first target).
func (d *Dataset) Label(i int) int { return int(d.Train[i].Y[0]) }

// BatchTensorsInto assembles the samples at indices into an input tensor and
// a flat target slice ready for nn.Trainable.TrainBatch / EvalBatch. It fills
// caller-owned buffers: x's data and shape and the target slice are resized in
// place, so a loop that feeds batches straight into TrainBatch/EvalBatch
// allocates nothing in steady state. The returned tensor is x; the returned
// targets reuse ys's backing array when it is large enough.
func (d *Dataset) BatchTensorsInto(samples []Sample, indices []int, x *nn.Tensor, ys []float64) (*nn.Tensor, []float64) {
	if len(indices) == 0 {
		panic("datasets: empty batch")
	}
	perX := len(samples[indices[0]].X)
	n := len(indices) * perX
	if cap(x.Data) < n {
		x.Data = make([]float64, n)
	}
	x.Data = x.Data[:n]
	x.Shape = append(x.Shape[:0], len(indices))
	x.Shape = append(x.Shape, d.InputShape...)
	ys = ys[:0]
	for bi, si := range indices {
		s := samples[si]
		copy(x.Data[bi*perX:(bi+1)*perX], s.X)
		ys = append(ys, s.Y...)
	}
	return x, ys
}

// Loader yields shuffled minibatches over a node's local training indices,
// reshuffling at each epoch boundary with the node's own RNG.
type Loader struct {
	ds      *Dataset
	indices []int
	batch   int
	rng     *vec.RNG
	pos     int

	// Reused batch buffers: Next's results are valid until the next call,
	// which is how TrainBatch consumes them.
	x  nn.Tensor
	ys []float64
}

// NewLoader builds a loader over the given train indices.
func NewLoader(ds *Dataset, indices []int, batch int, rng *vec.RNG) *Loader {
	if len(indices) == 0 {
		panic("datasets: loader needs at least one sample")
	}
	if batch <= 0 {
		panic("datasets: batch size must be positive")
	}
	own := append([]int(nil), indices...)
	l := &Loader{ds: ds, indices: own, batch: batch, rng: rng}
	l.rng.ShuffleInts(l.indices)
	return l
}

// Size returns the number of local samples.
func (l *Loader) Size() int { return len(l.indices) }

// BatchesPerEpoch returns the number of minibatches in one local epoch.
func (l *Loader) BatchesPerEpoch() int {
	n := (len(l.indices) + l.batch - 1) / l.batch
	if n == 0 {
		n = 1
	}
	return n
}

// Next returns the next minibatch, reshuffling when an epoch completes. The
// returned tensor and targets are owned by the loader and valid until the
// next call.
func (l *Loader) Next() (*nn.Tensor, []float64) {
	if l.pos >= len(l.indices) {
		l.rng.ShuffleInts(l.indices)
		l.pos = 0
	}
	end := l.pos + l.batch
	if end > len(l.indices) {
		end = len(l.indices)
	}
	idx := l.indices[l.pos:end]
	l.pos = end
	x, ys := l.ds.BatchTensorsInto(l.ds.Train, idx, &l.x, l.ys)
	l.ys = ys
	return x, ys
}

// Evaluate scores model on every test sample in batches and returns mean loss
// and accuracy over scored predictions.
func Evaluate(ds *Dataset, model nn.Trainable, batch int) (loss, accuracy float64) {
	n := len(ds.Test)
	if n == 0 {
		return 0, 0
	}
	if batch <= 0 {
		batch = 32
	}
	var sumLoss float64
	var correct, count int
	idx := make([]int, 0, batch)
	var xt nn.Tensor
	var ys []float64
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		idx = idx[:0]
		for i := start; i < end; i++ {
			idx = append(idx, i)
		}
		x, y := ds.BatchTensorsInto(ds.Test, idx, &xt, ys)
		ys = y
		l, c, m := model.EvalBatch(x, y)
		sumLoss += l
		correct += c
		count += m
	}
	return sumLoss / float64(count), float64(correct) / float64(count)
}

// MajorityRate is the chance level of the test set: the share of the targets
// Evaluate scores (one per image or rating, one per position of a sequence)
// that the most common class takes, which is the accuracy of always
// predicting that class. A rating counts under its nearest integer, the
// constant prediction Evaluate scores correct for it.
func (d *Dataset) MajorityRate() float64 {
	counts := map[int]int{}
	n, best := 0, 0
	for _, s := range d.Test {
		for _, y := range s.Y {
			c := int(math.Round(y))
			counts[c]++
			best = max(best, counts[c])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(best) / float64(n)
}

// --- Partitioners -----------------------------------------------------------

// PartitionShards implements the paper's CIFAR-10 scheme: sort train samples
// by label, cut into nodes*shardsPerNode contiguous shards, and deal
// shardsPerNode random shards to each node. With 2 shards per node each node
// sees at most 4 classes, the paper's hardest non-IID setting.
func PartitionShards(ds *Dataset, nodes, shardsPerNode int, rng *vec.RNG) ([][]int, error) {
	n := len(ds.Train)
	total := nodes * shardsPerNode
	if total > n {
		return nil, fmt.Errorf("datasets: %d shards requested for %d samples", total, n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ds.Label(order[a]) < ds.Label(order[b]) })
	shardSize := n / total
	shardIDs := rng.Perm(total)
	out := make([][]int, nodes)
	for node := 0; node < nodes; node++ {
		for s := 0; s < shardsPerNode; s++ {
			shard := shardIDs[node*shardsPerNode+s]
			start := shard * shardSize
			end := start + shardSize
			if shard == total-1 {
				end = n
			}
			out[node] = append(out[node], order[start:end]...)
		}
	}
	return out, nil
}

// PartitionByClient distributes whole clients across nodes so each node
// receives an (almost) equal number of clients, as the paper does for the
// LEAF datasets and MovieLens. Clients are shuffled first.
func PartitionByClient(ds *Dataset, nodes int, rng *vec.RNG) ([][]int, error) {
	if ds.Clients == 0 {
		return nil, fmt.Errorf("datasets: %s has no client structure", ds.Name)
	}
	if nodes > ds.Clients {
		return nil, fmt.Errorf("datasets: %d nodes for %d clients", nodes, ds.Clients)
	}
	byClient := make([][]int, ds.Clients)
	for i, c := range ds.TrainClient {
		if c >= 0 {
			byClient[c] = append(byClient[c], i)
		}
	}
	perm := rng.Perm(ds.Clients)
	out := make([][]int, nodes)
	for pos, client := range perm {
		node := pos % nodes
		out[node] = append(out[node], byClient[client]...)
	}
	for node, idx := range out {
		if len(idx) == 0 {
			return nil, fmt.Errorf("datasets: node %d received no samples", node)
		}
	}
	return out, nil
}
