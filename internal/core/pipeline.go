package core

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/dwt"
	"repro/internal/topology"
	"repro/internal/vec"
)

// SharePlan returns the immutable DWT plan backing this node's transform, or
// nil when the transform is not plan-backed (the DisableWavelet ablation's
// identity). Nodes returning the same *Plan can run through one SharePipeline
// batch.
func (n *JWINSNode) SharePlan() *dwt.Plan { return n.plan }

// batchSets is what both pipelines reuse across calls: the slot lists of a
// batch's working sets and of the batched transforms' inputs and outputs. A
// batch holds one Scratch per member for its whole duration, because every
// member's stage outputs stay live until its last stage has run.
type batchSets struct {
	sets []*Scratch
	ins  [][]float64
	outs [][]float64
}

func (b *batchSets) acquire(n int) {
	for len(b.sets) < n {
		b.sets = append(b.sets, AcquireScratch())
	}
}

func (b *batchSets) release() {
	for i, s := range b.sets {
		s.Release()
		b.sets[i] = nil
	}
	b.sets = b.sets[:0]
}

// SharePipeline runs the share phase of a batch of JWINS nodes through their
// fleet-shared DWT plan: stage by stage — model snapshot and delta, batched
// forward transform of the deltas, accumulator update + cut-off + top-k,
// batched forward transform of the current parameters, gather + encode.
//
// Every per-node observable (accumulator, selected indices, LastAlpha,
// encoded payload, RNG stream) is bit-identical to calling Share on each
// node in order: the stages are literally the same methods the per-node path
// runs, nodes are independent, and the batched transform is bit-identical to
// the looped one (see dwt's differential tests). A SharePipeline reuses its
// slot lists across calls and is NOT safe for concurrent use.
type SharePipeline struct{ batchSets }

// ShareBatch runs the share phase for all nodes, which must share one
// non-nil plan, writing each node's payload and byte breakdown into
// payloads/bds. (JWINSNode.Share ignores its round argument, so the batch
// needs none.) On error the batch stops at the first failing node, in batch
// order.
func (p *SharePipeline) ShareBatch(nodes []*JWINSNode, payloads [][]byte, bds []codec.ByteBreakdown) error {
	if len(nodes) == 0 {
		return nil
	}
	if len(payloads) != len(nodes) || len(bds) != len(nodes) {
		return fmt.Errorf("core: ShareBatch result slices sized %d/%d, want %d", len(payloads), len(bds), len(nodes))
	}
	plan := nodes[0].SharePlan()
	if plan == nil {
		return fmt.Errorf("core: ShareBatch node %d has no shared plan (identity transform)", nodes[0].ID())
	}
	for _, n := range nodes[1:] {
		if n.SharePlan() != plan {
			return fmt.Errorf("core: ShareBatch node %d does not share the batch plan", n.ID())
		}
	}

	p.acquire(len(nodes))
	defer p.release()
	scratch := &p.sets[0].dwt

	// Stage 1: snapshot models and form parameter deltas.
	p.ins, p.outs = p.ins[:0], p.outs[:0]
	for i, n := range nodes {
		s := p.sets[i]
		n.sharePrep(s)
		p.ins = append(p.ins, s.DeltaPar)
		p.outs = append(p.outs, vec.Grow(&s.deltaCoeff, n.coeffDim))
	}
	// Stage 2: one batched pass turns every node's delta into coefficients.
	plan.ForwardBatch(p.ins, p.outs, scratch)

	// Stage 3: accumulate, sample cut-offs, select indices (per-node RNGs).
	for i, n := range nodes {
		n.shareSelect(p.sets[i])
	}

	// Stage 4: batched forward of the current parameters.
	p.ins, p.outs = p.ins[:0], p.outs[:0]
	for i, n := range nodes {
		p.ins = append(p.ins, p.sets[i].Params)
		p.outs = append(p.outs, n.curCoeffs)
	}
	plan.ForwardBatch(p.ins, p.outs, scratch)

	// Stage 5: gather and encode each node's payload.
	for i, n := range nodes {
		payload, bd, err := n.shareEncode(p.sets[i])
		if err != nil {
			return err
		}
		payloads[i], bds[i] = payload, bd
	}
	return nil
}

// AggregatePipeline is SharePipeline's mirror for lines 9-12 of Algorithm 1:
// the aggregate phase of a batch of plan-sharing JWINS nodes runs stage by
// stage — decode-or-cache-hit + partial average, batched inverse transform,
// model install + accumulator reset, batched forward transform for the
// eq.-4 update, accumulator fold — through one shared plan.
//
// The stages are literally the same methods the per-node Aggregate runs, in
// the same per-node order, and the batched transforms are bit-identical to
// the looped ones (dwt's differential tests), so every per-node observable
// — installed model, accumulator, startPar baseline — matches calling
// Aggregate on each node in batch order bit for bit. An AggregatePipeline
// reuses its slot lists across calls and is NOT safe for concurrent use.
type AggregatePipeline struct{ batchSets }

// AggregateBatch runs the aggregate phase for all nodes, which must share
// one non-nil plan; ws[i] and msgs[i] are node i's mixing weights and
// received payloads. On a decode/weight error the batch stops at the first
// failing node (earlier nodes have merged but not installed — callers treat
// any error as fatal to the run, as the engine does).
func (p *AggregatePipeline) AggregateBatch(nodes []*JWINSNode, ws []topology.Weights, msgs []map[int][]byte) error {
	if len(nodes) == 0 {
		return nil
	}
	if len(ws) != len(nodes) || len(msgs) != len(nodes) {
		return fmt.Errorf("core: AggregateBatch input slices sized %d/%d, want %d", len(ws), len(msgs), len(nodes))
	}
	plan := nodes[0].SharePlan()
	if plan == nil {
		return fmt.Errorf("core: AggregateBatch node %d has no shared plan (identity transform)", nodes[0].ID())
	}
	for _, n := range nodes[1:] {
		if n.SharePlan() != plan {
			return fmt.Errorf("core: AggregateBatch node %d does not share the batch plan", n.ID())
		}
	}

	p.acquire(len(nodes))
	defer p.release()
	scratch := &p.sets[0].dwt

	// Stage 1: decode (once fleet-wide under a DecodeCache) and partial-average.
	for i, n := range nodes {
		if err := n.aggMerge(p.sets[i], ws[i], msgs[i]); err != nil {
			return err
		}
	}

	// Stage 2: one batched inverse pass reconstructs every node's parameters.
	p.ins, p.outs = p.ins[:0], p.outs[:0]
	for i, n := range nodes {
		s := p.sets[i]
		p.ins = append(p.ins, s.avg)
		p.outs = append(p.outs, vec.Grow(&s.newParams, n.dim))
	}
	plan.InverseBatch(p.ins, p.outs, scratch)

	// Stage 3: install models and reset the shared accumulator entries.
	for i, n := range nodes {
		n.aggInstall(p.sets[i])
	}

	// Stage 4: batched forward of the installed parameters (eq. 4), for the
	// accumulation-enabled nodes only.
	p.ins, p.outs = p.ins[:0], p.outs[:0]
	for i, n := range nodes {
		if n.cfg.DisableAccumulation {
			continue
		}
		s := p.sets[i]
		p.ins = append(p.ins, s.newParams)
		p.outs = append(p.outs, vec.Grow(&s.installed, n.coeffDim))
	}
	plan.ForwardBatch(p.ins, p.outs, scratch)

	// Stage 5: fold accumulators and advance the round baselines.
	for i, n := range nodes {
		n.aggFold(p.sets[i])
	}
	return nil
}
