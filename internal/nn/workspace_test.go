package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/vec"
)

// zooCase is one architecture the model zoo builds, at a test size, with a
// drawer of n-sample batches for it.
type zooCase struct {
	name  string
	build func() *Classifier
	batch func(rng *vec.RNG, n int) (*Tensor, []float64)
}

func zooCases() []zooCase {
	images := func(c, h, w, classes int) func(*vec.RNG, int) (*Tensor, []float64) {
		return func(rng *vec.RNG, n int) (*Tensor, []float64) {
			x := NewTensor(n, c, h, w)
			fillNormal(x.Data, rng)
			return x, classTargets(rng, n, classes)
		}
	}
	const vocab, seq = 12, 6
	return []zooCase{
		{"gn-lenet", func() *Classifier {
			return NewGNLeNet(ModelConfig{Channels: 3, Height: 16, Width: 16, Classes: 10, WidthScale: 4}, vec.NewRNG(61))
		}, images(3, 16, 16, 10)},
		{"leaf-cnn", func() *Classifier {
			return NewLEAFCNN(ModelConfig{Channels: 1, Height: 16, Width: 16, Classes: 10, WidthScale: 8}, vec.NewRNG(62))
		}, images(1, 16, 16, 10)},
		{"mlp", func() *Classifier { return NewMLP(48, 16, 5, vec.NewRNG(63)) }, images(3, 4, 4, 5)},
		{"char-lstm", func() *Classifier {
			return NewCharLSTM(CharLSTMConfig{Vocab: vocab, Embed: 4, Hidden: 8, Layers: 2}, vec.NewRNG(64))
		}, func(rng *vec.RNG, n int) (*Tensor, []float64) {
			x := NewTensor(n, seq)
			for i := range x.Data {
				x.Data[i] = float64(rng.Intn(vocab))
			}
			return x, classTargets(rng, n*seq, vocab)
		}},
	}
}

// poisonWorkspaces overwrites every buffer of every idle workspace, up to its
// capacity, with values no call may read: NaN for floats, out-of-range
// indices, set masks, and nil cached inputs, under modes that claim the caches
// were written. A call that reads a buffer before writing it then produces
// NaNs or panics instead of silently reusing its predecessor's values. A new
// state type must be added here. A convolution's run table is left alone: it
// is no buffer but a listing keyed by its geometry, which every call compares
// (TestConvRunTableCoversTile checks that a new geometry relists it).
func poisonWorkspaces() {
	workspaceList.mu.Lock()
	defer workspaceList.mu.Unlock()
	nan := func(bufs ...[]float64) {
		for _, b := range bufs {
			b = b[:cap(b)]
			for i := range b {
				b[i] = math.NaN()
			}
		}
	}
	ts := func(ss ...*tscratch) {
		for _, s := range ss {
			nan(s.t.Data)
		}
	}
	ints := func(bufs ...[]int) {
		for _, b := range bufs {
			b = b[:cap(b)]
			for i := range b {
				b[i] = -1
			}
		}
	}
	for _, w := range workspaceList.free {
		ts(&w.loss)
		nan(w.grads)
		for _, st := range w.states {
			switch st := st.(type) {
			case *convState:
				st.x = nil
				ts(&st.out, &st.dx, &st.pk, &st.tile, &st.kin, &st.dxt)
			case *normState:
				st.x, st.train = nil, true
				nan(st.xhat, st.invSD)
				ts(&st.out, &st.dx)
			case *reluState:
				mask := st.mask[:cap(st.mask)]
				for i := range mask {
					mask[i] = true
				}
				st.train = true
				ts(&st.out, &st.dx)
			case *poolState:
				ints(st.argmax)
				st.train = true
				ts(&st.out, &st.dx)
			case *denseState:
				st.x = nil
				ts(&st.out, &st.dx)
			case *embedState:
				ints(st.ids)
				ts(&st.out, &st.dx)
			case *lstmState:
				st.x = nil
				nan(st.gates, st.cells, st.tanhCells, st.hiddens, st.dhNext, st.dcNext, st.dz)
				ts(&st.out, &st.dx)
			default:
				panic(fmt.Sprintf("poisonWorkspaces: no poison for %T", st))
			}
		}
	}
}

// TestWorkspaceSharingBitIdenticalToIsolation: a model's calls give the same
// bits whether each runs in a brand-new workspace or in one every other
// architecture of the zoo has just run in, with every idle buffer poisoned
// before each call — first with the models taking turns call by call through
// one recycled workspace, then with all four running at once. The batch size
// changes from call to call, so recycled buffers are reshaped both ways.
// Losses, evaluation triples and the final parameters must agree.
func TestWorkspaceSharingBitIdenticalToIsolation(t *testing.T) {
	cases := zooCases()
	// script builds a model and its calls, each appending its results to *out.
	script := func(zc zooCase, out *[]float64) (*Classifier, []func()) {
		m := zc.build()
		rng := vec.NewRNG(70)
		var calls []func()
		for i := 0; i < 6; i++ {
			x, y := zc.batch(rng, 2+i%3)
			calls = append(calls, func() { *out = append(*out, m.TrainBatch(x, y, 0.05)) })
			if i%2 == 1 {
				calls = append(calls, func() {
					loss, correct, count := m.EvalBatch(x, y)
					*out = append(*out, loss, float64(correct), float64(count))
				})
			}
		}
		return m, calls
	}
	// run plays every model's script, calling before ahead of each call.
	run := func(concurrent bool, before func()) [][]float64 {
		outs := make([][]float64, len(cases))
		models := make([]*Classifier, len(cases))
		scripts := make([][]func(), len(cases))
		for k, zc := range cases {
			models[k], scripts[k] = script(zc, &outs[k])
		}
		if concurrent {
			var wg sync.WaitGroup
			for _, calls := range scripts {
				wg.Add(1)
				go func(calls []func()) {
					defer wg.Done()
					for _, call := range calls {
						before()
						call()
					}
				}(calls)
			}
			wg.Wait()
		} else {
			for i := range scripts[0] {
				for _, calls := range scripts {
					before()
					calls[i]()
				}
			}
		}
		for k, m := range models {
			params := make([]float64, m.ParamCount())
			m.CopyParams(params)
			outs[k] = append(outs[k], params...)
		}
		return outs
	}
	forEachConvPath(t, func(t *testing.T) {
		want := run(false, ResetWorkspaces)
		for _, concurrent := range []bool{false, true} {
			got := run(concurrent, poisonWorkspaces)
			for k, zc := range cases {
				if i := firstBitDiff(got[k], want[k]); i >= 0 {
					t.Errorf("%s (concurrent=%v): value %d is %v shared, %v isolated", zc.name, concurrent, i, got[k][i], want[k][i])
				}
			}
		}
	})
}

// TestClassifierStepAllocationFree: after a warm-up call, neither a training
// nor an evaluation step of any architecture the zoo builds allocates, the
// workspace's acquire and release included.
func TestClassifierStepAllocationFree(t *testing.T) {
	for _, zc := range zooCases() {
		m := zc.build()
		x, y := zc.batch(vec.NewRNG(71), 4)
		if a := testing.AllocsPerRun(10, func() { m.TrainBatch(x, y, 0.05) }); a != 0 {
			t.Errorf("%s: TrainBatch allocates %v times per call", zc.name, a)
		}
		if a := testing.AllocsPerRun(10, func() { m.EvalBatch(x, y) }); a != 0 {
			t.Errorf("%s: EvalBatch allocates %v times per call", zc.name, a)
		}
	}
}
