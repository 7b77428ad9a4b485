// sharebatch.go routes the async scheduler's speculative train+share
// dispatches through core.SharePipeline: when several plan-sharing JWINS
// nodes chain train-done events, their compute is deferred into a small
// queue and submitted as ONE pooled task that runs every member's local
// training and then a single batched share pass (one cache-blocked DWT
// sweep over all deltas, one over all parameter vectors).
//
// Only the dispatch is batched — never the schedule. Each member's result
// still commits at its own train-done event, exactly where the per-node
// path commits, so the event trace, byte ledger, emitted rows, and every
// per-node observable are bit-identical to ShareBatch=0 at any parallelism
// (the repo's hard invariant, locked by TestShareBatchEngineParity).
//
// Deferral is safe under exactly the per-node speculation predicate
// (specSafe): between enqueue and flush nothing on the serial schedule may
// read or write a queued node's state — churn before the train-done time is
// excluded at enqueue, and so is any unemitted evaluation row that scores
// the node (rows at or above its iteration cannot be emitted while it holds
// the floor, and a row that does not score it never reads it); the node's
// own next aggregate needs this very train-done to be processed first. Flushing therefore happens at
// three points, all before any member's commit: when the queue reaches the
// configured batch size, once after the schedule is seeded, and in the event
// loop before processing any event at or after the earliest queued member's
// train-done time.
package simulation

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dwt"
)

// specEntry is one deferred speculative dispatch: node's train for iteration
// iter, whose train-done event is scheduled at simulated time t. jn is
// cleared once the entry has been folded into a flush group.
type specEntry struct {
	node int
	iter int
	t    float64
	jn   *core.JWINSNode
	plan *dwt.Plan
}

// shareBatchCtx is the reusable state of one in-flight batched dispatch: the
// pipeline (with its slot lists), the member list, the dependency futures,
// and the result slices ShareBatch fills. A context is acquired on the event
// loop at flush time and released by the pool worker after the results have
// been copied into the members' trainTask slots, so the free list is
// mutex-guarded (multiple batches can be in flight at once).
type shareBatchCtx struct {
	pipe     core.SharePipeline
	members  []int
	nodes    []*core.JWINSNode
	prevs    []*future
	payloads [][]byte
	bds      []codec.ByteBreakdown
}

// batchCtxPool is the free list of shareBatchCtx values.
type batchCtxPool struct {
	mu   sync.Mutex
	free []*shareBatchCtx
}

// get returns an empty context, reusing a recycled one when available.
func (p *batchCtxPool) get() *shareBatchCtx {
	p.mu.Lock()
	var c *shareBatchCtx
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if c == nil {
		return &shareBatchCtx{}
	}
	c.members = c.members[:0]
	c.nodes = c.nodes[:0]
	c.prevs = c.prevs[:0]
	c.payloads = c.payloads[:0]
	c.bds = c.bds[:0]
	return c
}

// put returns c to the free list. Slice contents are left in place (they are
// resliced on the next get); payload references are dropped the next time the
// context is used.
func (p *batchCtxPool) put(c *shareBatchCtx) {
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// enqueueSpec defers node i's speculative dispatch into the share-batch
// queue. Caller has already established specSafe and that jn shares plan.
func (r *asyncRun) enqueueSpec(i, iter int, t float64, jn *core.JWINSNode, plan *dwt.Plan) {
	r.specQueue = append(r.specQueue, specEntry{node: i, iter: iter, t: t, jn: jn, plan: plan})
	if t < r.specDue {
		r.specDue = t
	}
	if len(r.specQueue) >= r.cfg.ShareBatch {
		r.flushSpec()
	}
}

// flushSpec dispatches every queued speculative train+share, grouping
// members by plan in first-appearance order. Singleton groups take the
// per-node reference path; larger groups become one pooled task running all
// members' local training followed by one SharePipeline pass.
func (r *asyncRun) flushSpec() {
	q := r.specQueue
	for s := range q {
		if q[s].jn == nil {
			continue
		}
		if !r.dispatchGroup(q, s) {
			// Degenerate single-member group: the batched machinery would add
			// overhead for nothing, so it runs the per-node path instead.
			r.dispatchSpec(q[s].node, q[s].iter)
			q[s].jn = nil
		}
	}
	r.specQueue = q[:0]
	r.specDue = math.Inf(1)
}

// dispatchGroup collects every queue entry from position s onward that
// shares q[s]'s plan and submits them as one batched task. It reports false
// (and submits nothing) when q[s] is the only member of its group.
func (r *asyncRun) dispatchGroup(q []specEntry, s int) bool {
	plan := q[s].plan
	count := 1
	for j := s + 1; j < len(q); j++ {
		if q[j].jn != nil && q[j].plan == plan {
			count++
		}
	}
	if count == 1 {
		return false
	}
	ctx := r.ctxPool.get()
	for j := s; j < len(q); j++ {
		e := &q[j]
		if e.jn == nil || e.plan != plan {
			continue
		}
		ctx.members = append(ctx.members, e.node)
		ctx.nodes = append(ctx.nodes, e.jn)
		ctx.prevs = append(ctx.prevs, r.tails[e.node])
		ctx.payloads = append(ctx.payloads, nil)
		ctx.bds = append(ctx.bds, codec.ByteBreakdown{})
		tt := &r.trainTasks[e.node]
		tt.loss, tt.payload, tt.bd = 0, nil, codec.ByteBreakdown{}
		e.jn = nil
	}
	fut := r.pool.submitBatch(ctx.prevs, func() error {
		// Per-member training first, then one batched share: identical to the
		// per-node LocalTrain+Share sequence because nodes are independent
		// and ShareBatch is stage-for-stage the per-node Share (see
		// core.SharePipeline's bit-identity contract).
		for _, i := range ctx.members {
			r.trainTasks[i].loss = r.eng.Nodes[i].LocalTrain()
		}
		if err := ctx.pipe.ShareBatch(ctx.nodes, ctx.payloads, ctx.bds); err != nil {
			return fmt.Errorf("share batch %v: %w", ctx.members, err)
		}
		for k, i := range ctx.members {
			tt := &r.trainTasks[i]
			tt.payload, tt.bd = ctx.payloads[k], ctx.bds[k]
		}
		r.ctxPool.put(ctx)
		return nil
	})
	for _, i := range ctx.members {
		tt := &r.trainTasks[i]
		tt.fut = fut
		r.pendTrain[i] = tt
		r.tails[i] = fut
	}
	return true
}
