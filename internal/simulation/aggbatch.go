// aggbatch.go routes the async scheduler's pool-dispatched aggregates
// through core.AggregatePipeline, the aggregate mirror of sharebatch.go:
// when several plan-sharing JWINS nodes aggregate in close succession,
// their merge compute is deferred into a small queue and submitted as ONE
// pooled task running a single batched aggregate pass (one decode-or-
// cache-hit sweep, one batched inverse DWT, one batched forward for the
// accumulator update).
//
// Only the compute is batched — never the schedule. Everything the
// aggregate EVENT produces (staleness samples, policy accounting, the
// trace record, inbox cleanup, the iteration advance, row emission, the
// next train-done push) stays at the event, exactly as the per-node path
// has it, so traces, ledgers, and rows are bit-identical to
// AggregateBatch=0 at any parallelism.
//
// Deferring an aggregate also defers the node's NEXT speculative train
// dispatch: the per-node path chains that train on the aggregate's future
// (tails[i]), and in the pool's inline mode a dispatch runs immediately —
// dispatching the train before the deferred aggregate ran would reorder
// the node's program-order chain. scheduleTrain therefore records the
// pending train in the node's queue entry, and always folds the train-done
// time into aggDue, so the flush happens before any event could observe
// either computation:
//
//   - when the queue reaches the configured batch size;
//   - in the event loop, before processing any event at or after aggDue
//     (every queued node's next train-done time bounds aggDue, so the
//     train-done commit — speculative or inline-fallback — always finds
//     its aggregate on tails[i]);
//   - at the top of drain(), which covers evaluation rows (they read
//     models), error paths, and the end of the run;
//   - at the top of onJoin, the one churn path that re-dispatches work for
//     a node outside the aggregate→scheduleTrain flow.
//
// After a flush submits the batch, each member's pending train goes
// through the normal speculative machinery (the share-batch queue when
// ShareBatch is on, the per-node dispatch otherwise) against the updated
// tails — the same dispatches scheduleTrain would have made, only later,
// and "dispatching later" is bounded by the same safety predicate
// (specSafe) that already governs when those results may become visible.
package simulation

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/dwt"
	"repro/internal/topology"
)

// gatedBatchWidth applies the single-core gate to a requested batch width:
// on a GOMAXPROCS=1 host the deferred-dispatch machinery cannot overlap
// anything and has been measured to cost 1–5% wall (cache locality of the
// deferral queue), so batching auto-disables unless explicitly forced.
func gatedBatchWidth(requested int, force bool, gomaxprocs int) int {
	if requested >= 2 && gomaxprocs == 1 && !force {
		return 0
	}
	return requested
}

// aggEntry is one deferred aggregate: node's merge for iteration iter with
// the mixing weights and payload map captured at the aggregate event. jn is
// cleared once the entry has been folded into a flush group. trainPending
// marks that the node's next speculative train (for trainIter, whose
// train-done event is at trainT) was deferred along with it.
type aggEntry struct {
	node int
	iter int
	jn   *core.JWINSNode
	plan *dwt.Plan
	w    topology.Weights
	msgs map[int][]byte

	trainPending bool
	trainIter    int
	trainT       float64
}

// aggBatchCtx is the reusable state of one in-flight batched aggregate:
// the pipeline (with its slot lists), members, dependency futures, and
// the per-member weight/payload slices AggregateBatch consumes. Acquired on
// the event loop at flush time, released by the pool worker, so the free
// list is mutex-guarded.
type aggBatchCtx struct {
	pipe  core.AggregatePipeline
	nodes []*core.JWINSNode
	ws    []topology.Weights
	msgs  []map[int][]byte
	prevs []*future
	ids   []int
}

// aggCtxPool is the free list of aggBatchCtx values.
type aggCtxPool struct {
	mu   sync.Mutex
	free []*aggBatchCtx
}

func (p *aggCtxPool) get() *aggBatchCtx {
	p.mu.Lock()
	var c *aggBatchCtx
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if c == nil {
		return &aggBatchCtx{}
	}
	c.nodes = c.nodes[:0]
	c.ws = c.ws[:0]
	for i := range c.msgs {
		c.msgs[i] = nil // drop payload-map references from the previous batch
	}
	c.msgs = c.msgs[:0]
	c.prevs = c.prevs[:0]
	c.ids = c.ids[:0]
	return c
}

func (p *aggCtxPool) put(c *aggBatchCtx) {
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// submitAggregate dispatches node i's aggregate on the pool — the per-node
// reference path; the batched path below must be bit-identical to it.
func (r *asyncRun) submitAggregate(i, iter int, wi topology.Weights, msgs map[int][]byte) {
	r.tails[i] = r.pool.submit(r.tails[i], i, func() error {
		err := r.eng.Nodes[i].Aggregate(iter, wi, msgs)
		r.msgsPool.put(msgs)
		if err != nil {
			return fmt.Errorf("node %d aggregate: %w", i, err)
		}
		return nil
	})
}

// enqueueAgg defers node i's aggregate into the batch queue when eligible
// (AggregateBatch >= 2, a plan-sharing JWINS node), reporting whether it
// did. The caller falls back to submitAggregate otherwise.
func (r *asyncRun) enqueueAgg(i, iter int, wi topology.Weights, msgs map[int][]byte) bool {
	if r.cfg.AggregateBatch < 2 {
		return false
	}
	jn, ok := r.eng.Nodes[i].(*core.JWINSNode)
	if !ok {
		return false
	}
	plan := jn.SharePlan()
	if plan == nil {
		return false
	}
	r.aggIdx[i] = len(r.aggQueue)
	r.aggQueue = append(r.aggQueue, aggEntry{node: i, iter: iter, jn: jn, plan: plan, w: wi, msgs: msgs})
	if len(r.aggQueue) >= r.cfg.AggregateBatch {
		r.flushAgg()
	}
	return true
}

// deferTrain records node i's speculative train in its queued aggregate
// entry (scheduleTrain calls it instead of dispatching when aggIdx[i] >= 0)
// and folds the train-done time into aggDue unconditionally — even a
// non-speculative train's inline fallback waits on tails[i] at its event,
// so the deferred aggregate must be flushed by then.
func (r *asyncRun) deferTrain(i, iter int, t float64, speculate bool) {
	e := &r.aggQueue[r.aggIdx[i]]
	if t < r.aggDue {
		r.aggDue = t
	}
	if speculate {
		e.trainPending = true
		e.trainIter = iter
		e.trainT = t
	}
}

// flushAgg dispatches every queued aggregate, grouping members by plan in
// first-appearance order (singletons take the per-node reference path),
// then re-runs each member's deferred speculative train dispatch against
// the updated tails. Safe to call with an empty queue.
func (r *asyncRun) flushAgg() {
	q := r.aggQueue
	if len(q) == 0 {
		return
	}
	for s := range q {
		if q[s].jn == nil {
			continue
		}
		if !r.dispatchAggGroup(q, s) {
			// Degenerate single-member group: the batched machinery would add
			// overhead for nothing, so it runs the per-node path instead.
			e := &q[s]
			r.submitAggregate(e.node, e.iter, e.w, e.msgs)
			e.jn = nil
		}
	}
	// Dispatch the deferred trains only now, after every member's aggregate
	// is on its tail: a speculative train chains on tails[node], and in the
	// pool's inline mode it would otherwise run before its aggregate.
	for s := range q {
		e := &q[s]
		r.aggIdx[e.node] = -1
		if !e.trainPending {
			continue
		}
		e.trainPending = false
		if r.cfg.ShareBatch >= 2 {
			// The node aggregated through a plan, so its share is batch-
			// eligible under the same plan.
			jn := r.eng.Nodes[e.node].(*core.JWINSNode)
			r.enqueueSpec(e.node, e.trainIter, e.trainT, jn, jn.SharePlan())
		} else {
			r.dispatchSpec(e.node, e.trainIter)
		}
	}
	r.aggQueue = q[:0]
	r.aggDue = math.Inf(1)
}

// dispatchAggGroup collects every queue entry from position s onward that
// shares q[s]'s plan and submits them as one batched task. It reports false
// (and submits nothing) when q[s] is the only member of its group.
func (r *asyncRun) dispatchAggGroup(q []aggEntry, s int) bool {
	plan := q[s].plan
	count := 0
	for j := s; j < len(q); j++ {
		if q[j].jn != nil && q[j].plan == plan {
			count++
		}
	}
	if count == 1 {
		return false
	}
	ctx := r.aggCtxs.get()
	for j := s; j < len(q); j++ {
		e := &q[j]
		if e.jn == nil || e.plan != plan {
			continue
		}
		ctx.ids = append(ctx.ids, e.node)
		ctx.nodes = append(ctx.nodes, e.jn)
		ctx.ws = append(ctx.ws, e.w)
		ctx.msgs = append(ctx.msgs, e.msgs)
		ctx.prevs = append(ctx.prevs, r.tails[e.node])
		e.jn = nil
	}
	fut := r.pool.submitBatch(ctx.prevs, func() error {
		// Stage-for-stage the per-node Aggregate (see core.AggregatePipeline's
		// bit-identity contract); nodes are independent, so batch order is
		// per-node order.
		err := ctx.pipe.AggregateBatch(ctx.nodes, ctx.ws, ctx.msgs)
		for _, m := range ctx.msgs {
			r.msgsPool.put(m)
		}
		if err != nil {
			return fmt.Errorf("aggregate batch %v: %w", ctx.ids, err)
		}
		r.aggCtxs.put(ctx)
		return nil
	})
	for _, i := range ctx.ids {
		r.tails[i] = fut
	}
	return true
}
