package core

import (
	"sync"

	"repro/internal/codec"
)

// DecodeCache is the fleet-level decoded-payload cache: every payload a
// sender broadcasts is turned into its vector at most once, into an
// immutable codec.SparseVector shared by all recipients, instead of once per
// recipient (a payload broadcast to d neighbors was decoded d times
// fleet-wide — entropy-decode and inflate dominate the aggregate micro for
// flate32). An entry holds the float32 values the wire carried, 4 bytes a
// value; readers widen each one where they multiply it by its weight.
//
// The cache keeps one entry per sender: the payload it was last asked for,
// or the vector a Share published into the sender's empty slot (publish;
// the codec round trip is exact). Sync rounds empty the cache, so no sync
// broadcast is decoded. Acquiring a sender's new payload retires its
// previous entry, which is recycled at its last release. Recipients run at
// most a staleness window apart, and under the barrier all of them read a
// sender's payload before it sends the next, so an older payload is rarely
// asked for again; when it is, it is simply decoded again.
//
// Entries are keyed by the identity of the payload's backing array, not by
// (sender, iteration): churn and epoch state-sync can legitimately put a
// different byte slice under a reused key, and identity keying rules out
// serving a vector the per-node decode path would not have produced for
// those exact bytes — provided no array a findable entry keys is ever
// rewritten, published and decoded entries alike (a fault injector must
// corrupt a copy of a payload). The entry retains the payload slice itself,
// so the GC cannot free its address and hand it to a later payload while
// the entry lives. The
// synchronous engine does reuse payload addresses: it hands each round's
// payloads back to their senders (PayloadRecycler), whose next Share encodes
// into the same array. It calls Reset before every hand-back, so no entry a
// reader can still find ever aliases a recycled buffer; that Reset is a
// correctness requirement. The async engine hands nothing back and never
// drops an entry: a churned-out or disconnected sender keeps its one entry,
// which the all-live state holds anyway, until a recipient acquires its
// next broadcast.
//
// A DecodeCache is safe for concurrent use: concurrent acquires of the same
// payload decode it once, with late arrivals waiting on the entry's ready
// channel. Entries are refcounted; callers must release every acquired
// entry once they no longer read its vector.
type DecodeCache struct {
	mu     sync.Mutex
	slots  map[int]*cacheEntry
	free   []*cacheEntry
	hits   int64
	misses int64
}

// cacheEntry is one decoded or published payload. buf retains the encoded
// payload (the identity key), sv its vector; both are immutable while the
// entry is discoverable. refs counts acquirers that have not released yet; dead
// marks entries retired from their slot, recycled to the free list at the
// last release.
type cacheEntry struct {
	buf   []byte
	ready chan struct{}
	sv    codec.SparseVector
	err   error
	refs  int
	dead  bool
}

// acquire returns the decoded entry for payload, decoding it on first
// acquire. The caller owns one reference and must release it; the entry's
// sv and err are valid once acquire returns. payload must be non-empty.
func (c *DecodeCache) acquire(sender int, payload []byte) *cacheEntry {
	c.mu.Lock()
	old := c.slots[sender]
	if old != nil && len(old.buf) == len(payload) && &old.buf[0] == &payload[0] {
		old.refs++
		c.hits++
		c.mu.Unlock()
		<-old.ready
		return old
	}
	e := c.newEntryLocked()
	e.buf = payload
	c.misses++
	if c.slots == nil {
		c.slots = make(map[int]*cacheEntry)
	}
	if old != nil {
		c.retireLocked(old)
	}
	c.slots[sender] = e
	c.mu.Unlock()

	e.err = codec.DecodeSparseInto(&e.sv, payload)
	close(e.ready)
	return e
}

// publish copies sv, what codec.DecodeSparseInto yields for payload, into
// the sender's slot if it is empty, and otherwise does nothing: a
// speculative Share can run ahead of the readers of the sender's previous
// payload. It counts as neither a hit nor a miss.
func (c *DecodeCache) publish(sender int, payload []byte, sv codec.SparseVector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slots[sender] != nil {
		return
	}
	e := c.newEntryLocked()
	e.refs, e.buf = 0, payload
	idx := e.sv.Indices[:0]
	e.sv = codec.SparseVector{Dim: sv.Dim, Seed: sv.Seed, Values: append(e.sv.Values[:0], sv.Values...)}
	if sv.Indices != nil {
		e.sv.Indices = append(idx, sv.Indices...)
	}
	close(e.ready)
	if c.slots == nil {
		c.slots = make(map[int]*cacheEntry)
	}
	c.slots[sender] = e
}

// release drops one reference; the last release of a retired entry
// recycles it (its decode buffers stay warm on the free list).
func (c *DecodeCache) release(e *cacheEntry) {
	c.mu.Lock()
	e.refs--
	if e.refs == 0 && e.dead {
		c.recycleLocked(e)
	}
	c.mu.Unlock()
}

// Reset drops every cached payload of every sender — the synchronous
// engine's end-of-round call. A round's payloads are never acquired again
// once its aggregation phase is over, so the cache holds one round and the
// retired entries' decode buffers stay warm on the free list for the next.
// It must run before the engine hands the round's payloads back to their
// senders for reuse (see the type comment).
func (c *DecodeCache) Reset() {
	c.mu.Lock()
	for _, e := range c.slots {
		c.retireLocked(e)
	}
	clear(c.slots)
	c.mu.Unlock()
}

// Len returns the number of live entries: payloads a new acquire can still
// find (retired entries awaiting their last release do not count).
func (c *DecodeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Stats returns the lifetime hit/miss counters. Counts may vary slightly
// with parallelism (concurrent first acquires race for the miss), so they
// are telemetry, never part of determinism comparisons.
func (c *DecodeCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *DecodeCache) newEntryLocked() *cacheEntry {
	var e *cacheEntry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		e = &cacheEntry{}
	}
	e.refs = 1
	e.dead = false
	e.err = nil
	e.ready = make(chan struct{})
	return e
}

// retireLocked takes an entry out of its slot: no new acquirer can find it,
// and it is recycled as soon as the last holder releases.
func (c *DecodeCache) retireLocked(e *cacheEntry) {
	e.dead = true
	if e.refs == 0 {
		c.recycleLocked(e)
	}
}

func (c *DecodeCache) recycleLocked(e *cacheEntry) {
	e.buf = nil // release the retained payload; sv capacity stays warm
	c.free = append(c.free, e)
}

// DecodeCacheUser is implemented by nodes whose aggregate path can serve
// decodes from a shared DecodeCache; the engine wires one cache into every
// node that supports it.
type DecodeCacheUser interface {
	SetDecodeCache(*DecodeCache)
}

// PayloadRecycler is implemented by nodes whose Share can encode into a
// buffer handed back to them instead of allocating a fresh payload. The
// contract: p is what this node's last Share returned (or nil, which drops
// the node's buffer), and nothing reads it any more — not an inbox, a decode
// cache entry a reader can still find, or a message in flight. Only the
// synchronous engine hands payloads back, once a round has consumed them.
type PayloadRecycler interface {
	RecyclePayload(p []byte)
}
