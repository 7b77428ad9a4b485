// events.go defines the event vocabulary and priority queue of the
// event-driven scheduler in async.go. Events are ordered by simulated time
// with a monotone sequence number as tie-break, so same-instant events are
// processed in push order and whole runs are reproducible from a seed.
package simulation

import "fmt"

// EventKind enumerates the scheduler's event types.
type EventKind int

// Event kinds.
const (
	// EventTrainDone fires when a node finishes its local SGD phase; the
	// scheduler then runs train+share and broadcasts the payload.
	EventTrainDone EventKind = iota
	// EventArrival fires when a payload (or the knowledge that it was
	// dropped) reaches its receiver.
	EventArrival
	// EventLeave removes a node from the live set (churn).
	EventLeave
	// EventJoin returns a node to the live set (churn).
	EventJoin
	// EventEpoch rotates the communication topology into epoch Iter
	// (EpochProvider runs only). Node is 0 by convention: the change is
	// global, not per-node.
	EventEpoch
	// EventDeadline fires a node's straggler-dropping aggregation deadline
	// for iteration Iter (DeadlinePolicy runs only). Stale deadlines — the
	// node already aggregated, churned, or advanced — are no-ops.
	EventDeadline
)

// String implements fmt.Stringer for trace output.
func (k EventKind) String() string {
	switch k {
	case EventTrainDone:
		return "train-done"
	case EventArrival:
		return "arrival"
	case EventLeave:
		return "leave"
	case EventJoin:
		return "join"
	case EventEpoch:
		return "epoch"
	case EventDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry in the async scheduler's queue. A processed event
// reaches AsyncConfig.Record as its trace record (see schedTraceEvent);
// payload and generation are scheduler-internal.
type Event struct {
	// Time is the simulated timestamp in seconds.
	Time float64
	// Seq breaks ties deterministically: same-time events process in the
	// order they were pushed.
	Seq int64
	// Kind is the event type.
	Kind EventKind
	// Node is the subject: the trainer, receiver, leaver, or joiner.
	Node int
	// From is the sender id (EventArrival only).
	From int
	// Iter is the sender's local iteration for arrivals, or the node's
	// iteration for train-done events.
	Iter int
	// Dropped marks an arrival whose payload was lost in flight: the
	// receiver learns it should stop waiting, but gets no bytes (the sync
	// engine's drop semantics, where senders still pay for the bytes).
	Dropped bool

	payload []byte
	gen     int // node generation; events from before a leave/join are stale
}

// eventQueue is an unboxed indexed 4-ary min-heap over (Time, Seq). Events
// live in a slot-addressed slab recycled through a free list, and the heap
// orders 4-byte slot indices instead of whole structs — so pushes never box
// through an interface, never allocate in steady state (the slab and index
// arrays grow once to the high-water mark), and sift operations move int32s
// rather than ~90-byte Event values. A 4-ary layout halves the tree depth of
// a binary heap, trading slightly more comparisons per level for far fewer
// cache-missing levels on the deep queues of 1024-node runs.
//
// (Time, Seq) is a total order (Seq is unique), so pop order is identical to
// the previous container/heap implementation — the bit-for-bit trace parity
// the determinism suite asserts.
type eventQueue struct {
	slab []Event // slot-addressed storage
	free []int32 // recycled slots
	heap []int32 // slot indices ordered by (Time, Seq)
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.heap) }

// push enqueues ev, recycling a slab slot when one is free.
func (q *eventQueue) push(ev Event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, Event{})
	}
	q.slab[slot] = ev
	q.heap = append(q.heap, slot)
	q.siftUp(len(q.heap) - 1)
}

// pop removes and returns the minimum event. The event's slab slot is
// cleared (so recycled slots never pin payload buffers) and returned to the
// free list before the copy is handed back.
func (q *eventQueue) pop() Event {
	top := q.heap[0]
	ev := q.slab[top]
	q.slab[top] = Event{} // drop the payload reference held by the pooled slot
	q.free = append(q.free, top)
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 1 {
		q.siftDown(0)
	}
	return ev
}

// less orders slab slots by (Time, Seq).
func (q *eventQueue) less(a, b int32) bool {
	ea, eb := &q.slab[a], &q.slab[b]
	if ea.Time != eb.Time {
		return ea.Time < eb.Time
	}
	return ea.Seq < eb.Seq
}

func (q *eventQueue) siftUp(i int) {
	h := q.heap
	slot := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.less(slot, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = slot
}

func (q *eventQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	slot := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.less(h[c], h[best]) {
				best = c
			}
		}
		if !q.less(h[best], slot) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = slot
}
