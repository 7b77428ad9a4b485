package core

import (
	"sync"

	"repro/internal/codec"
)

// decodeCacheWays bounds the live entries kept per sender. A sender has at
// most one payload per iteration, and recipients lag each other by at most
// the staleness window, so a few ways cover gossip and bounded-staleness
// inboxes; anything older is evicted and simply re-decoded on the rare
// late acquire.
const decodeCacheWays = 3

// DecodeCache is the fleet-level decoded-payload cache: every payload a
// sender broadcasts is decoded exactly once, into an immutable
// codec.SparseVector shared by all recipients, instead of once per
// recipient (a payload broadcast to d neighbors was decoded d times
// fleet-wide — entropy-decode and inflate dominate the aggregate micro for
// flate32). An entry holds the float32 values the wire carried, 4 bytes a
// value; readers widen each one where they multiply it by its weight.
//
// Entries are keyed by the identity of the payload's backing array, not by
// (sender, iteration): churn and epoch state-sync can legitimately put a
// different byte slice under a reused key, and identity keying rules out
// serving a vector the per-node decode path would not have produced for
// those exact bytes — provided no array a findable entry keys is ever
// rewritten. The entry retains the payload slice itself, so the GC cannot
// free its address and hand it to a later payload while the entry lives. The
// synchronous engine does reuse payload addresses: it hands each round's
// payloads back to their senders (PayloadRecycler), whose next Share encodes
// into the same array. It calls Reset before every hand-back, so no entry a
// reader can still find ever aliases a recycled buffer. The async engine
// hands nothing back. InvalidateSender is therefore memory hygiene (drop a
// churned-out or disconnected sender's buffers), never a correctness
// requirement; Reset before a hand-back is one.
//
// A DecodeCache is safe for concurrent use: concurrent acquires of the same
// payload decode it once, with late arrivals waiting on the entry's ready
// channel. Decoded vectors are refcounted; callers must release every
// acquired entry once they no longer read its vector.
type DecodeCache struct {
	mu     sync.Mutex
	slots  map[int][]*cacheEntry
	free   []*cacheEntry
	hits   int64
	misses int64
}

// cacheEntry is one decoded payload. buf retains the encoded payload (the
// identity key), sv the decoded vector; both are immutable while the entry
// is discoverable. refs counts acquirers that have not released yet; dead
// marks entries evicted from their slot, recycled to the free list at the
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
	for _, e := range c.slots[sender] {
		if len(e.buf) == len(payload) && &e.buf[0] == &payload[0] {
			e.refs++
			c.hits++
			c.mu.Unlock()
			<-e.ready
			return e
		}
	}
	e := c.newEntryLocked()
	e.buf = payload
	c.misses++
	if c.slots == nil {
		c.slots = make(map[int][]*cacheEntry)
	}
	s := append(c.slots[sender], e)
	if len(s) > decodeCacheWays {
		old := s[0]
		copy(s, s[1:])
		s = s[:len(s)-1]
		c.retireLocked(old)
	}
	c.slots[sender] = s
	c.mu.Unlock()

	e.err = codec.DecodeSparseInto(&e.sv, payload)
	close(e.ready)
	return e
}

// release drops one reference; the last release of an evicted entry
// recycles it (its decode buffers stay warm on the free list).
func (c *DecodeCache) release(e *cacheEntry) {
	c.mu.Lock()
	e.refs--
	if e.refs == 0 && e.dead {
		c.recycleLocked(e)
	}
	c.mu.Unlock()
}

// InvalidateSender drops every cached payload of one sender — called on
// churn (the node left) and on epoch rotation when the sender lost all its
// edges. Purely memory hygiene: identity keying already prevents stale
// serving (see the type comment).
func (c *DecodeCache) InvalidateSender(sender int) {
	c.mu.Lock()
	for _, e := range c.slots[sender] {
		c.retireLocked(e)
	}
	delete(c.slots, sender)
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
	for sender, entries := range c.slots {
		for i, e := range entries {
			c.retireLocked(e)
			entries[i] = nil
		}
		c.slots[sender] = entries[:0]
	}
	c.mu.Unlock()
}

// Len returns the number of live entries: payloads a new acquire can still
// find (retired entries awaiting their last release do not count).
func (c *DecodeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, entries := range c.slots {
		n += len(entries)
	}
	return n
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

// retireLocked evicts an entry from its slot: no new acquirer can find it,
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
