package core

import (
	"sync"
	"testing"

	"repro/internal/codec"
)

// testPayload encodes a small dense vector whose values are a deterministic
// function of seed, returning a freshly allocated buffer each call — the
// same allocation discipline Share has, which the cache's identity keying
// relies on.
func testPayload(t *testing.T, dim int, seed float64) []byte {
	t.Helper()
	vals := make([]float32, dim)
	for i := range vals {
		vals[i] = float32(seed + float64(i))
	}
	buf, _, err := codec.EncodeSparse(codec.SparseVector{Dim: dim, Values: vals},
		codec.IndexDense, codec.Raw32{})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func decodeRef(t testing.TB, buf []byte) codec.SparseVector {
	t.Helper()
	var sv codec.SparseVector
	if err := codec.DecodeSparseInto(&sv, buf); err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestDecodeCacheServesDecodedPayload: a hit returns the identical decoded
// vector the miss produced, for the identical buffer, and the counters see
// one miss plus the hits.
func TestDecodeCacheServesDecodedPayload(t *testing.T) {
	dc := &DecodeCache{}
	buf := testPayload(t, 64, 1)
	want := decodeRef(t, buf)

	e1 := dc.acquire(3, buf)
	if e1.err != nil {
		t.Fatal(e1.err)
	}
	if !floatsBitEqual(e1.sv.Values, want.Values) || e1.sv.Dim != want.Dim {
		t.Fatal("miss decode differs from reference decode")
	}
	e2 := dc.acquire(3, buf)
	if e2 != e1 {
		t.Fatal("second acquire of the same buffer did not hit the cached entry")
	}
	hits, misses := dc.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	dc.release(e1)
	dc.release(e2)
}

// TestDecodeCacheReusedKeyNeverStale is the invalidation-correctness test
// the engine's churn and bounded-staleness paths depend on: a sender that
// re-broadcasts for the SAME iteration (a rejoin re-send, a deadline
// re-merge, a stale-inbox reuse) produces a new buffer with different
// contents, and the cache must decode that buffer — identity keying, not any
// (sender, iteration) key, decides hits. The recipient's per-node path would
// decode exactly what it was handed; the cache must never serve anything
// else.
func TestDecodeCacheReusedKeyNeverStale(t *testing.T) {
	dc := &DecodeCache{}
	const sender = 5
	first := testPayload(t, 64, 1)
	second := testPayload(t, 64, 2) // same sender, same nominal iteration, new bytes

	e1 := dc.acquire(sender, first)
	if e1.err != nil {
		t.Fatal(e1.err)
	}
	e2 := dc.acquire(sender, second)
	if e2.err != nil {
		t.Fatal(e2.err)
	}
	if e2 == e1 {
		t.Fatal("different payload served from a previous broadcast's entry")
	}
	if !floatsBitEqual(e2.sv.Values, decodeRef(t, second).Values) {
		t.Fatal("re-broadcast decoded to stale values")
	}
	// The newer broadcast is the sender's entry; the older one is not served
	// again from its retired entry.
	if dc.acquire(sender, second) != e2 {
		t.Fatal("identity lookup missed the sender's current broadcast")
	}
	h, m := dc.Stats()
	if h != 1 || m != 2 {
		t.Fatalf("stats (%d hits, %d misses), want (1, 2)", h, m)
	}
}

// TestDecodeCacheEviction: a sender keeps one entry. A newer payload retires
// the older one, which stays valid for its holder until released (epoch
// rotation severing edges mid-aggregate is exactly this shape), and a late
// acquire of the older payload decodes it again into a fresh entry, which in
// turn retires the newer one.
func TestDecodeCacheEviction(t *testing.T) {
	dc := &DecodeCache{}
	older, newer := testPayload(t, 32, 1), testPayload(t, 32, 2)
	e1 := dc.acquire(7, older)
	e2 := dc.acquire(7, newer)
	if e1.err != nil || e2.err != nil {
		t.Fatal(e1.err, e2.err)
	}
	if dc.Len() != 1 || dc.slots[7] != e2 {
		t.Fatalf("%d live entries, sender's entry is the newer: %v; want 1, true", dc.Len(), dc.slots[7] == e2)
	}
	if !e1.dead || e2.dead {
		t.Fatalf("retired: older %v, newer %v; want true, false", e1.dead, e2.dead)
	}
	// The older entry was retired while still held: its decoded view must
	// survive until release, and only then go to the free list.
	if !floatsBitEqual(e1.sv.Values, decodeRef(t, older).Values) {
		t.Fatal("held retired entry lost its decoded values")
	}
	dc.release(e1)
	if len(dc.free) != 1 || dc.free[0] != e1 {
		t.Fatalf("free list %d entries, want the retired one at its last release", len(dc.free))
	}
	// A late acquire of the older payload is a miss into a fresh decode.
	late := dc.acquire(7, older)
	if late.err != nil {
		t.Fatal(late.err)
	}
	if !floatsBitEqual(late.sv.Values, decodeRef(t, older).Values) {
		t.Fatal("late acquire decoded to the wrong values")
	}
	if !e2.dead || dc.Len() != 1 || dc.slots[7] != late {
		t.Fatal("late acquire did not become the sender's one entry")
	}
	if h, m := dc.Stats(); h != 0 || m != 3 {
		t.Fatalf("stats (%d hits, %d misses), want (0, 3)", h, m)
	}
	dc.release(e2)
	dc.release(late)
}

// TestDecodeCacheReset: a reset retires every sender's entries at once —
// released ones land on the free list with their decode buffers, a held one
// stays valid until its release — and the next round's payloads miss into the
// recycled entries.
func TestDecodeCacheReset(t *testing.T) {
	dc := &DecodeCache{}
	first := testPayload(t, 32, 1)
	a := dc.acquire(1, first)
	b := dc.acquire(2, testPayload(t, 32, 2))
	dc.release(a)
	if dc.Len() != 2 {
		t.Fatalf("%d live entries before reset, want 2", dc.Len())
	}

	dc.Reset()
	if dc.Len() != 0 {
		t.Fatalf("%d live entries after reset, want 0", dc.Len())
	}
	if len(dc.free) != 1 {
		t.Fatalf("free list holds %d entries, want the 1 released", len(dc.free))
	}
	if !floatsBitEqual(b.sv.Values, decodeRef(t, testPayload(t, 32, 2)).Values) {
		t.Fatal("held entry reset out from under its holder")
	}
	dc.release(b)
	if len(dc.free) != 2 {
		t.Fatal("held entry not recycled at its last release")
	}

	// The same buffer after a reset is a miss, served from a recycled entry.
	again := dc.acquire(1, first)
	if again != a && again != b {
		t.Fatal("post-reset miss did not reuse a recycled entry")
	}
	if !floatsBitEqual(again.sv.Values, decodeRef(t, first).Values) {
		t.Fatal("recycled entry decoded to stale values")
	}
	if h, m := dc.Stats(); h != 0 || m != 3 {
		t.Fatalf("stats (%d hits, %d misses), want (0, 3)", h, m)
	}
	dc.release(again)
}

// TestDecodeCacheConcurrentDecodeOnce: many goroutines acquiring the same
// buffer get one decode (the ready channel publishes it) and every acquirer
// observes the same values — the fan-out case the cache exists for.
func TestDecodeCacheConcurrentDecodeOnce(t *testing.T) {
	dc := &DecodeCache{}
	buf := testPayload(t, 256, 3)
	want := decodeRef(t, buf)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := dc.acquire(9, buf)
			defer dc.release(e)
			if e.err != nil {
				errs <- e.err
				return
			}
			if !floatsBitEqual(e.sv.Values, want.Values) {
				errs <- errStaleDecode
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	h, m := dc.Stats()
	if m != 1 || h != workers-1 {
		t.Fatalf("stats (%d hits, %d misses), want (%d, 1)", h, m, workers-1)
	}
}

var errStaleDecode = &staleDecodeError{}

type staleDecodeError struct{}

func (*staleDecodeError) Error() string { return "concurrent acquirer observed wrong decoded values" }

// TestDecodeCacheErrorPropagates: a corrupt payload's decode error reaches
// every acquirer, exactly like the per-node decode path's error would.
func TestDecodeCacheErrorPropagates(t *testing.T) {
	dc := &DecodeCache{}
	corrupt := []byte{0xff, 0xff, 0xff}
	e1 := dc.acquire(4, corrupt)
	if e1.err == nil {
		t.Fatal("corrupt payload decoded without error")
	}
	e2 := dc.acquire(4, corrupt)
	if e2 != e1 || e2.err == nil {
		t.Fatal("hit on the corrupt entry did not surface the decode error")
	}
	dc.release(e1)
	dc.release(e2)
}
