package core

import (
	"sync"

	"repro/internal/codec"
	"repro/internal/dwt"
	"repro/internal/sparsify"
	"repro/internal/topology"
	"repro/internal/vec"
)

// scratch is the working set of one running Share or Aggregate call: every
// buffer whose contents are dead once the call returns. Nodes keep only what
// their algorithm's equations carry from one call to the next; a call takes
// a scratch with acquireScratch, runs in it, and releases it, so a fleet
// holds as many working sets as it ever ran calls at once (the engines'
// Parallelism, +1 for the event loop) instead of one per node.
//
// A recycled scratch keeps its last user's values, and users differ in
// dimension and algorithm: every buffer is sized with vec.Grow (or resliced
// to zero and appended to) where it is written, and is written in full
// before it is read.
type scratch struct {
	params    []float64 // model snapshot x^(t,tau)
	coeffs    []float64 // JWINS's DWT(x^(t,tau))
	delta     []float64 // CHOCO's x - x̂
	scores    []float64 // JWINS's V' = DWT(x^(t,tau)) - base
	avg       []float64 // weight-normalized average of own and received vectors
	newParams []float64 // inverse transform of avg

	vals []float32 // the payload's values, narrowed to what the wire carries
	topk sparsify.TopKScratch
	enc  codec.EncodeScratch
	dwt  dwt.Scratch
	dec  decodeScratch
}

// scratchList is the free list behind acquireScratch, shared by every fleet
// in the process. It is a mutex-guarded list and not a sync.Pool because a
// GC must not empty it: the zero-allocation ceilings and the number of live
// working sets would stop being deterministic.
var scratchList struct {
	mu   sync.Mutex
	free []*scratch
}

// acquireScratch takes a working set off the free list — the most recently
// released one, whose buffers are the likeliest to still be in cache — or
// makes an empty one when every existing set is in use. The caller must
// release it when its call returns.
func acquireScratch() *scratch {
	l := &scratchList
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return &scratch{}
	}
	s := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return s
}

// release returns s to the free list; the caller must not use it afterwards.
func (s *scratch) release() {
	l := &scratchList
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, s)
}

// merge decodes the neighbor payloads (once fleet-wide when cache is
// non-nil) and writes the weight-normalized partial average of own and the
// decoded vectors into s.avg.
func (s *scratch) merge(cache *DecodeCache, own []float64, w topology.Weights, msgs map[int][]byte) error {
	decoded, err := s.dec.decodeAll(cache, len(own), w, msgs)
	if err == nil {
		partialAverage(own, w.Self, decoded, vec.Grow(&s.avg, len(own)))
	}
	s.dec.releaseHeld(cache)
	return err
}
