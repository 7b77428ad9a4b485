// roundio.go is the I/O layer shared by the synchronous round engine and the
// event-driven async scheduler: per-node train+share execution, cumulative
// byte accounting, and fleet evaluation. Both engines express their schedules
// in terms of these primitives so that byte ledgers and metrics stay
// comparable across execution modes; both fan compute out on the worker pool
// in pool.go.
package simulation

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/vec"
)

// evalSeedSalt decorrelates evaluation sampling from the other consumers of
// the run seed ("eval").
const evalSeedSalt = 0x6576616c

// frameOverhead is the cost model's per-message framing charge in bytes: a
// length, sender and round header of four bytes each. It is metadata, so it
// lands in the meta half of the split.
const frameOverhead = 12

// byteLedger accumulates the cumulative model/metadata byte split. Senders
// pay for every neighbor copy (payload + framing), mirroring the paper's
// per-node uplink accounting.
type byteLedger struct {
	total, model, meta int64
}

// addSend charges one sender for `receivers` copies of a payload and returns
// the bytes charged.
func (l *byteLedger) addSend(bd codec.ByteBreakdown, payloadLen int, receivers int64) int64 {
	sent := receivers * int64(payloadLen+frameOverhead)
	l.total += sent
	l.model += receivers * int64(bd.Model)
	l.meta += receivers * int64(bd.Meta+frameOverhead)
	return sent
}

// trainShare runs one node's local-training phase and builds its broadcast
// payload for the given round/iteration.
func trainShare(nd core.Node, round int) (loss float64, payload []byte, bd codec.ByteBreakdown, err error) {
	loss = nd.LocalTrain()
	payload, bd, err = nd.Share(round)
	return loss, payload, bd, err
}

// setDecodeCache points every node whose aggregate path can share decoded
// payloads at c: one decode per broadcast fleet-wide instead of one per
// recipient. Both engines attach a fresh cache per run (a reused fleet never
// serves a previous run's buffers) and detach it (nil) when the run returns,
// so a fleet that outlives the run does not pin the last decoded buffers.
func setDecodeCache(nodes []core.Node, c *core.DecodeCache) {
	for _, nd := range nodes {
		if u, ok := nd.(core.DecodeCacheUser); ok {
			u.SetDecodeCache(c)
		}
	}
}

// recyclePayloads hands payloads[i] back to node i when it can reuse it
// (core.PayloadRecycler), or nil to every such node when payloads is nil. The
// synchronous engine calls it once a round's payloads are dead, and with nil
// when the run returns, so a fleet that outlives the run pins no buffer. The
// async engine never calls it: its payloads live on in state-sync, rejoin
// caches and in-flight messages.
func recyclePayloads(nodes []core.Node, payloads [][]byte) {
	for i, nd := range nodes {
		if r, ok := nd.(core.PayloadRecycler); ok {
			var p []byte
			if payloads != nil {
				p = payloads[i]
			}
			r.RecyclePayload(p)
		}
	}
}

// evalSampler produces the rotating subsets of sampled evaluation
// (Config.EvalSample). Rows score successive windows of a per-cycle random
// permutation: window w of cycle c covers perm_c[w*s : (w+1)*s], the window
// advances every eval row, and a fresh seeded permutation is
// drawn once every ceil(n/s) windows — so every node is visited within one
// cycle and the visit order reshuffles across cycles. Subsets depend only on
// the config and the row's round, never on execution order, which keeps
// sampled runs bit-identical across parallelism levels. The sampler caches
// the cycle permutation so per-row subset construction is O(EvalSample).
type evalSampler struct {
	n      int
	cfg    Config
	cycle  int
	perm   []int
	subset []int
	// member is the cache of samples, apart from perm and subset so that a
	// question about a future row never touches the subset a caller of
	// subsetFor still holds: at[node] is node's position in cycle's
	// permutation. Two slots, by cycle parity, for queries that straddle a
	// cycle boundary.
	member [2]struct {
		cycle int
		at    []int
	}
}

// newEvalSampler returns nil (sampling off) unless cfg.EvalSample is set and
// actually below the fleet size.
func newEvalSampler(n int, cfg Config) *evalSampler {
	if cfg.EvalSample <= 0 || cfg.EvalSample >= n {
		return nil
	}
	return &evalSampler{n: n, cfg: cfg, cycle: -1}
}

// window maps a row to its permutation cycle and its window's offset in that
// permutation. It steps by the eval ordinal (round/EvalEvery), not the raw
// round: eval rows land every EvalEvery rounds, and stepping by round would
// skip windows between them, breaking the coverage bound.
func (s *evalSampler) window(round int) (cycle, start int) {
	sz := s.cfg.EvalSample
	windows := (s.n + sz - 1) / sz
	step := round / s.cfg.EvalEvery
	return step / windows, step % windows * sz
}

func (s *evalSampler) permOf(cycle int) []int {
	return vec.NewRNG(s.cfg.EvalSeed ^ evalSeedSalt ^ uint64(cycle)*0x9e3779b97f4a7c15).Perm(s.n)
}

// samples reports whether subsetFor(round) contains node.
func (s *evalSampler) samples(round, node int) bool {
	cycle, start := s.window(round)
	m := &s.member[cycle&1]
	if m.at == nil || m.cycle != cycle {
		if m.at == nil {
			m.at = make([]int, s.n)
		}
		for k, i := range s.permOf(cycle) {
			m.at[i] = k
		}
		m.cycle = cycle
	}
	// The window covers positions start .. start+EvalSample-1, wrapping.
	return (m.at[node]-start+s.n)%s.n < s.cfg.EvalSample
}

// subsetFor returns the sampled node indices for the row emitted at round, or
// nil when sampling is off (nil receiver). Valid for every round — alpha
// summaries reuse the subset on non-eval rows. The returned slice is reused
// by the next call; callers must not retain it.
func (s *evalSampler) subsetFor(round int) []int {
	if s == nil {
		return nil
	}
	cycle, start := s.window(round)
	if cycle != s.cycle {
		s.perm, s.cycle = s.permOf(cycle), cycle
	}
	if s.subset == nil {
		s.subset = make([]int, s.cfg.EvalSample)
	}
	for i := range s.subset {
		// The last window wraps to the permutation's head; s < n keeps the
		// wrapped entries distinct from the window's own.
		s.subset[i] = s.perm[(start+i)%s.n]
	}
	return s.subset
}

// evaluateNodesOn returns mean test loss and accuracy fanned out on the given
// pool. A non-nil subset evaluates exactly those node indices (sampled
// rotating evaluation); subset entries outside live (when non-nil) contribute
// NaN and drop out of the mean, so offline nodes don't skew sampled rows. A
// nil subset is exact evaluation over every node; it ignores live,
// preserving the historical behavior of scoring offline nodes' retained
// models.
func evaluateNodesOn(p *computePool, nodes []core.Node, testSet *datasets.Dataset, subset []int, live []bool) (loss, acc float64, err error) {
	if subset == nil {
		live = nil
	}
	k := len(nodes)
	if subset != nil {
		k = len(subset)
	}
	lossSum := make([]float64, k)
	accSum := make([]float64, k)
	err = p.forEach(k, func(i int) error {
		j := i
		if subset != nil {
			j = subset[i]
		}
		if live != nil && !live[j] {
			lossSum[i], accSum[i] = math.NaN(), math.NaN()
			return nil
		}
		l, a := datasets.Evaluate(testSet, nodes[j].Model(), evalBatch)
		lossSum[i], accSum[i] = l, a
		return nil
	})
	// Evaluation returns no error of its own: this one is a panic in a model,
	// and its task index says which.
	var pe *TaskPanicError
	if errors.As(err, &pe) {
		j := pe.Task
		if subset != nil {
			j = subset[j]
		}
		err = fmt.Errorf("node %d evaluate: %w", j, err)
	}
	return mean(lossSum), mean(accSum), err
}

// meanAlpha is the Figure 3 sharing-fraction series: the mean of the
// committed per-node alphas (NaN for non-JWINS nodes, skipped) over the
// sampled subset, or over every node when subset is nil, keeping row
// emission O(sample) at 10k nodes.
func meanAlpha(alphas []float64, subset []int) float64 {
	if subset == nil {
		return mean(alphas)
	}
	return meanOverIdx(alphas, subset)
}

// meanOverIdx averages the non-NaN entries of x at the given indices.
func meanOverIdx(x []float64, idx []int) float64 {
	var s float64
	count := 0
	for _, i := range idx {
		if math.IsNaN(x[i]) {
			continue
		}
		s += x[i]
		count++
	}
	if count == 0 {
		return math.NaN()
	}
	return s / float64(count)
}

// mean averages the non-NaN entries (departed nodes score NaN, non-JWINS
// nodes report NaN alphas).
func mean(x []float64) float64 {
	var s float64
	count := 0
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		s += v
		count++
	}
	if count == 0 {
		return math.NaN()
	}
	return s / float64(count)
}

// localSteps peeks the per-round local step count for the time model.
func localSteps(n core.Node) int {
	type stepper interface{ LocalStepCount() int }
	if s, ok := n.(stepper); ok {
		return s.LocalStepCount()
	}
	return 1
}
