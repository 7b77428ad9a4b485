// Package core implements the paper's decentralized learning algorithms over
// a common Node interface: JWINS (wavelet ranking + accumulation + randomized
// cut-off + compressed metadata), full-sharing D-PSGD, the random-sampling
// sparsification baseline, and CHOCO-SGD. All of them encode through
// baseNode.encode and decode through decodeScratch.decodeAll.
//
// All algorithms follow the train-communicate-aggregate round structure of
// Section II-A: the simulation engine calls LocalTrain, then Share, delivers
// payloads along the topology, and calls Aggregate with the mixing weights.
package core

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/topology"
)

// Node is one decentralized learning participant.
type Node interface {
	// ID returns the node's index in the topology.
	ID() int
	// LocalTrain runs the configured number of local SGD steps and returns
	// the mean train-batch loss.
	LocalTrain() float64
	// Share returns the payload this node broadcasts to all its neighbors in
	// the given round, with its model/metadata byte breakdown.
	Share(round int) ([]byte, codec.ByteBreakdown, error)
	// Aggregate merges the payloads received from neighbors (keyed by sender
	// id) using the node's mixing weights and installs the averaged model.
	// It follows a Share, and the model must not change in between: engines
	// train only right before a Share and set the model only through
	// Aggregate, so a node reads its own shared vector back from the model
	// here instead of keeping a copy.
	Aggregate(round int, w topology.Weights, msgs map[int][]byte) error
	// Model exposes the trainable for evaluation.
	Model() nn.Trainable
}

// TrainOpts are the local-training hyperparameters shared by all algorithms
// (tuned once on full-sharing, per the paper's protocol).
type TrainOpts struct {
	LR         float64
	LocalSteps int // tau local SGD steps per communication round
}

func (o TrainOpts) validate() error {
	if o.LR <= 0 {
		return fmt.Errorf("core: learning rate must be positive, got %v", o.LR)
	}
	if o.LocalSteps <= 0 {
		return fmt.Errorf("core: local steps must be positive, got %d", o.LocalSteps)
	}
	return nil
}

// baseNode carries the state every algorithm shares: the model, the local
// data loader, the training options, the fleet's decode cache, and the
// payload buffer the engine handed back for the next Share to encode into.
type baseNode struct {
	id     int
	model  nn.Trainable
	loader *datasets.Loader
	opts   TrainOpts
	cache  *DecodeCache
	spare  []byte
}

func (b *baseNode) ID() int             { return b.id }
func (b *baseNode) Model() nn.Trainable { return b.model }

// SetDecodeCache attaches the fleet-shared decoded-payload cache; Aggregate
// then serves neighbor decodes from it instead of decoding per recipient.
func (b *baseNode) SetDecodeCache(c *DecodeCache) { b.cache = c }

// RecyclePayload implements PayloadRecycler: the next Share encodes into p.
func (b *baseNode) RecyclePayload(p []byte) { b.spare = p }

// LocalStepCount reports tau; the simulation's time model uses it.
func (b *baseNode) LocalStepCount() int { return b.opts.LocalSteps }

// encode serializes a Share's payload into the buffer last handed back, if
// any, and drops the node's reference to it: from here on the buffer is the
// returned payload, owned by whoever delivers it. sv, with the indices a
// decode regenerates (seeded ones too), is published to the decode cache.
func (b *baseNode) encode(s *scratch, sv codec.SparseVector, mode codec.IndexMode, fc codec.FloatCodec) ([]byte, codec.ByteBreakdown, error) {
	dst := b.spare
	b.spare = nil
	buf, bd, err := codec.EncodeSparseInto(dst, &s.enc, sv, mode, fc)
	if err != nil {
		return nil, bd, fmt.Errorf("core: encoding share payload: %w", err)
	}
	if b.cache != nil {
		b.cache.publish(b.id, buf, sv)
	}
	return buf, bd, nil
}

// LocalTrain implements the tau-step local SGD phase.
func (b *baseNode) LocalTrain() float64 {
	var total float64
	for s := 0; s < b.opts.LocalSteps; s++ {
		x, y := b.loader.Next()
		total += b.model.TrainBatch(x, y, b.opts.LR)
	}
	return total / float64(b.opts.LocalSteps)
}

// partialAverage performs the per-coefficient weighted average used by both
// JWINS (in the wavelet domain) and random sampling (in the parameter
// domain): each coefficient is averaged over the nodes that provided it,
// normalized by the sum of the weights actually present. own is the node's
// full coefficient vector; out receives the averaged vector (may alias own's
// backing array only if callers no longer need own). The vector is walked
// once, in blocks that stay in L1, and a coefficient collects its terms in
// sender order whatever the block size: dense payloads (nil Indices) add to
// every coefficient, sparse ones keep a cursor into their increasing Indices.
// When every message is dense the weight sum is one number for all of them.
// Message values are the wire's float32, widened at their multiply.
func partialAverage(own []float64, selfWeight float64, msgs []decodedMsg, out []float64) {
	allDense, total := true, selfWeight
	for i := range msgs {
		m := &msgs[i]
		m.next = 0
		m.dense = m.sv.Indices == nil && len(m.sv.Values) == len(out)
		allDense = allDense && m.dense
		total += m.weight
	}
	var wsum [1024]float64
	for k := range wsum {
		wsum[k] = total // rewritten per block unless allDense
	}
	for lo := 0; lo < len(out); lo += len(wsum) {
		hi := min(lo+len(wsum), len(out))
		o, ws := out[lo:hi], wsum[:hi-lo]
		for k, v := range own[lo:hi] {
			o[k] = selfWeight * v
		}
		if !allDense {
			for k := range ws {
				ws[k] = selfWeight
			}
		}
		for i := 0; i < len(msgs); i++ {
			m := &msgs[i]
			if allDense && i+4 <= len(msgs) { // four at a time: the coefficient stays in a register
				a, b := m.sv.Values[lo:hi][:len(o)], msgs[i+1].sv.Values[lo:hi][:len(o)]
				c, d := msgs[i+2].sv.Values[lo:hi][:len(o)], msgs[i+3].sv.Values[lo:hi][:len(o)]
				wa, wb, wc, wd := m.weight, msgs[i+1].weight, msgs[i+2].weight, msgs[i+3].weight
				for k := range o {
					o[k] = o[k] + wa*float64(a[k]) + wb*float64(b[k]) + wc*float64(c[k]) + wd*float64(d[k])
				}
				i += 3
			} else if m.dense {
				for k, v := range m.sv.Values[lo:hi] {
					o[k] += m.weight * float64(v)
				}
				if !allDense {
					for k := range ws {
						ws[k] += m.weight
					}
				}
			} else {
				idx, p := m.sv.Indices, m.next
				for ; p < len(idx) && idx[p] < hi; p++ {
					k := idx[p] - lo
					o[k] += m.weight * float64(m.sv.Values[p])
					ws[k] += m.weight
				}
				m.next = p
			}
		}
		for k := range o {
			o[k] /= ws[k]
		}
	}
}

// decodedMsg pairs a decoded sparse vector with its mixing weight. sv is a
// view: it aliases either the slot's own decode scratch (own) or an
// immutable shared DecodeCache entry — readers must treat it as read-only.
type decodedMsg struct {
	sv     codec.SparseVector
	own    codec.SparseVector
	weight float64
	dense  bool // partialAverage's: sv has a value for every coefficient
	next   int  // partialAverage's cursor into sv.Indices
}

// decodeScratch holds the reusable payload-decoding state of one Aggregate
// call: the sorted sender list and one sparse-vector slot per neighbor, so
// steady-state aggregation decodes every payload into warm buffers. It is
// part of the call's scratch and not safe for concurrent use. With a
// DecodeCache, slots alias shared cache entries instead of decoding locally;
// held tracks the entries to release once the aggregate no longer reads them.
type decodeScratch struct {
	senders []int
	msgs    []decodedMsg
	held    []*cacheEntry
}

// releaseHeld returns every entry the last decodeAll acquired from cache.
// Call it as soon as the decoded vectors are no longer read (after the
// partial average); safe to call when cache is nil or nothing is held.
func (d *decodeScratch) releaseHeld(cache *DecodeCache) {
	for i, e := range d.held {
		cache.release(e)
		d.held[i] = nil
	}
	d.held = d.held[:0]
	for i := range d.msgs {
		d.msgs[i].sv = codec.SparseVector{} // a recycled scratch must not pin cache entries
	}
}

// decodeAll decodes neighbor payloads and attaches mixing weights, erroring
// on senders missing from the weight row (a topology/delivery bug) and on
// dimension mismatches. Dense payloads keep nil Indices (partialAverage
// adds them to every coefficient). Senders are processed in increasing
// id order so floating-point accumulation is bit-for-bit reproducible across
// runs (map iteration order is not). The returned slice and its sparse
// vectors are owned by the scratch and valid until its next use. A non-nil
// cache serves the decodes; the caller must releaseHeld on it afterwards.
func (d *decodeScratch) decodeAll(cache *DecodeCache, dim int, w topology.Weights, msgs map[int][]byte) ([]decodedMsg, error) {
	d.senders = d.senders[:0]
	for from := range msgs {
		d.senders = append(d.senders, from)
	}
	sort.Ints(d.senders)
	for len(d.msgs) < len(d.senders) {
		d.msgs = append(d.msgs, decodedMsg{})
	}
	out := d.msgs[:len(d.senders)]
	for slot, from := range d.senders {
		buf := msgs[from]
		weight, ok := w.Neighbor[from]
		if !ok {
			return nil, fmt.Errorf("core: payload from %d but no mixing weight for it", from)
		}
		m := &out[slot]
		m.weight = weight
		if cache != nil && len(buf) > 0 {
			e := cache.acquire(from, buf)
			if e.err != nil {
				cache.release(e)
				return nil, fmt.Errorf("core: payload from %d: %w", from, e.err)
			}
			d.held = append(d.held, e)
			m.sv = e.sv
		} else {
			if err := codec.DecodeSparseInto(&m.own, buf); err != nil {
				return nil, fmt.Errorf("core: payload from %d: %w", from, err)
			}
			m.sv = m.own
		}
		if m.sv.Dim != dim {
			return nil, fmt.Errorf("core: payload from %d has dim %d, want %d", from, m.sv.Dim, dim)
		}
	}
	return out, nil
}
