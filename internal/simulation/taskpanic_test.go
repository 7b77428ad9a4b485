package simulation

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/topology"
	"repro/internal/vec"
)

// faultyNode is a node whose Share, Aggregate or model evaluation (where)
// panics from round faultRound on: a bug in one node's code, which has to end
// the run with an error instead of ending the process.
type faultyNode struct {
	core.Node
	where string
	// shared is the last round Share ran for; evaluation has no round of its own.
	shared atomic.Int64
}

const (
	faultNode  = 3
	faultRound = 2
)

func (n *faultyNode) LocalStepCount() int { return localSteps(n.Node) }

func (n *faultyNode) SetDecodeCache(c *core.DecodeCache) {
	if u, ok := n.Node.(core.DecodeCacheUser); ok {
		u.SetDecodeCache(c)
	}
}

func (n *faultyNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	n.shared.Store(int64(round))
	if n.where == "share" && round >= faultRound {
		panic(fmt.Sprintf("share bug at round %d", round))
	}
	return n.Node.Share(round)
}

func (n *faultyNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	if n.where == "aggregate" && round >= faultRound {
		panic(fmt.Sprintf("aggregate bug at round %d", round))
	}
	return n.Node.Aggregate(round, w, msgs)
}

func (n *faultyNode) Model() nn.Trainable {
	if n.where == "eval" && n.shared.Load() >= faultRound {
		return faultyModel{n.Node.Model()}
	}
	return n.Node.Model()
}

type faultyModel struct{ nn.Trainable }

func (faultyModel) EvalBatch(*nn.Tensor, []float64) (float64, int, int) { panic("eval bug") }

// faultyRun runs one engine over a fleet whose node faultNode is faulty and
// returns Run's error.
func faultyRun(t *testing.T, async bool, where string, parallelism int) error {
	t.Helper()
	const n = 8
	ds, parts := buildTask(t, n, 42)
	fleet := buildNodes(t, algoJWINS, ds, parts, 7)
	fleet[faultNode] = &faultyNode{Node: fleet[faultNode], where: where}
	g, err := topology.Regular(n, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rounds: 6, EvalEvery: 1, Parallelism: parallelism}
	if async {
		_, err = (&AsyncEngine{Nodes: fleet, Topology: topology.NewStatic(g), TestSet: ds, Config: AsyncConfig{Config: cfg}}).Run()
	} else {
		_, err = (&Engine{Nodes: fleet, Topology: topology.NewStatic(g), TestSet: ds, Config: cfg}).Run()
	}
	return err
}

// TestTaskPanicBecomesRunError: a panic in a node's Share, Aggregate or model
// comes back from Run as a *TaskPanicError that names the node, the same at
// Parallelism 1 (tasks inline on the engine's goroutine) and 4 (on workers),
// from both engines, with every pool goroutine gone afterwards.
func TestTaskPanicBecomesRunError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, async := range []bool{false, true} {
		for _, where := range []string{"share", "aggregate", "eval"} {
			t.Run(fmt.Sprintf("async=%v/%s", async, where), func(t *testing.T) {
				var serial string
				for _, p := range []int{1, 4} {
					err := faultyRun(t, async, where, p)
					var pe *TaskPanicError
					if !errors.As(err, &pe) {
						t.Fatalf("parallelism %d: Run returned %v, want a *TaskPanicError", p, err)
					}
					if pe.Task != faultNode || !strings.Contains(fmt.Sprint(pe.Value), where+" bug") {
						t.Errorf("parallelism %d: task %d panicked with %v, want node %d's %s bug", p, pe.Task, pe.Value, faultNode, where)
					}
					if !strings.Contains(string(pe.Stack), "faulty") {
						t.Errorf("parallelism %d: the stack does not reach the panicking method:\n%s", p, pe.Stack)
					}
					// The first line is everything but the stack, which names
					// goroutines and so differs from run to run.
					msg, _, _ := strings.Cut(err.Error(), "\n")
					if !strings.Contains(msg, fmt.Sprint(faultNode)) {
						t.Errorf("parallelism %d: %q does not name node %d", p, msg, faultNode)
					}
					if p == 1 {
						serial = msg
					} else if msg != serial {
						t.Errorf("parallelism %d returned %q, serial %q", p, msg, serial)
					}
				}
			})
		}
	}
	// close() waits for the workers; the shim goroutines of chained tasks end
	// once their task is queued, which drain() has waited for.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}
