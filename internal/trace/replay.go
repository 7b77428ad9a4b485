// replay.go turns a recorded trace into an authoritative schedule oracle.
// The async engine's control flow is deterministic given its event times, so
// reproducing a run only requires answering two questions from the recording:
// when did node i's iteration-k training finish, and when (and whether) did
// the payload i sent to j for iteration k arrive. Leave/join events pass
// through as the churn schedule.
//
// Keys are consumed FIFO because the same (node, iteration) can legitimately
// recur: a churned node's superseded train-done still occupies the queue, and
// a rejoining node's neighbors re-send their cached payloads. The engine
// issues lookups in its deterministic processing order, so FIFO pairing
// reproduces the original queue exactly. A Replayer is therefore single-use:
// build a fresh one per replayed run.
package trace

import "fmt"

type trainKey struct{ node, iter int }

type sendKey struct{ from, to, iter int }

type arrivalRec struct {
	time    float64
	dropped bool
}

// Replayer indexes a trace for schedule playback.
type Replayer struct {
	header    Header
	train     map[trainKey][]float64
	arr       map[sendKey][]arrivalRec
	sends     map[sendKey][]bool // recorded per-send dropped flags
	deadlines map[trainKey][]float64
	churn     []Event
	epochs    []Event
}

// NewReplayer validates t and builds the schedule index.
func NewReplayer(t *Trace) (*Replayer, error) {
	if err := Validate(t.Header, t.Events); err != nil {
		return nil, err
	}
	r := &Replayer{
		header:    t.Header,
		train:     make(map[trainKey][]float64),
		arr:       make(map[sendKey][]arrivalRec),
		sends:     make(map[sendKey][]bool),
		deadlines: make(map[trainKey][]float64),
	}
	for _, ev := range t.Events {
		switch ev.Kind {
		case KindTrainDone:
			k := trainKey{ev.Node, ev.Iter}
			r.train[k] = append(r.train[k], ev.Time)
		case KindSend:
			k := sendKey{ev.Node, ev.Peer, ev.Iter}
			r.sends[k] = append(r.sends[k], ev.Dropped)
		case KindArrival:
			// The arrival's subject is the receiver; Peer is the sender.
			k := sendKey{ev.Peer, ev.Node, ev.Iter}
			r.arr[k] = append(r.arr[k], arrivalRec{time: ev.Time, dropped: ev.Dropped})
		case KindDeadline:
			k := trainKey{ev.Node, ev.Iter}
			r.deadlines[k] = append(r.deadlines[k], ev.Time)
		case KindLeave, KindJoin:
			r.churn = append(r.churn, ev)
		case KindEpoch:
			r.epochs = append(r.epochs, ev)
		}
	}
	if len(r.train) == 0 {
		return nil, fmt.Errorf("%w: no train-done events — nothing to replay", ErrCorrupt)
	}
	return r, nil
}

// Header returns the recorded run's description.
func (r *Replayer) Header() Header { return r.header }

// TrainDoneTime consumes and returns the next recorded completion time of
// node's iteration iter. ok is false when the recording holds no (further)
// such event — the caller should skip scheduling (the node left before the
// event mattered) and treat a stalled replay as a config mismatch.
func (r *Replayer) TrainDoneTime(node, iter int) (t float64, ok bool) {
	k := trainKey{node, iter}
	q := r.train[k]
	if len(q) == 0 {
		return 0, false
	}
	r.train[k] = q[1:]
	return q[0], true
}

// NextArrival consumes and returns the next recorded delivery of from's
// iteration-iter payload to to: its arrival time and whether it was dropped
// in flight. ok is false when no (further) delivery was recorded — the
// recorded run ended with the message still in flight, so the replay should
// send without scheduling a delivery.
func (r *Replayer) NextArrival(from, to, iter int) (t float64, dropped, ok bool) {
	k := sendKey{from, to, iter}
	q := r.arr[k]
	if len(q) == 0 {
		return 0, false, false
	}
	r.arr[k] = q[1:]
	return q[0].time, q[0].dropped, true
}

// NextSend consumes and returns the next recorded send of from's
// iteration-iter payload to to: whether that send was dropped in flight. ok
// is false when the trace carries no (further) such send record — possible
// for hand-built traces without derived send events, in which case the
// matching arrival's dropped flag is the fallback.
func (r *Replayer) NextSend(from, to, iter int) (dropped, ok bool) {
	k := sendKey{from, to, iter}
	q := r.sends[k]
	if len(q) == 0 {
		return false, false
	}
	r.sends[k] = q[1:]
	return q[0], true
}

// NextDeadline consumes and returns the next recorded straggler-deadline
// firing for node's iteration iter. ok is false when no (further) deadline
// was recorded for that iteration — the original run aggregated early every
// time (or ended first), so the replay schedules nothing.
func (r *Replayer) NextDeadline(node, iter int) (t float64, ok bool) {
	k := trainKey{node, iter}
	q := r.deadlines[k]
	if len(q) == 0 {
		return 0, false
	}
	r.deadlines[k] = q[1:]
	return q[0], true
}

// Churn returns the recorded leave/join events in trace order.
func (r *Replayer) Churn() []Event { return r.churn }

// Epochs returns the recorded topology-rotation events in trace order. The
// replaying engine schedules them verbatim instead of deriving boundaries
// from its own epoch length, so a replay rotates at the recorded times.
func (r *Replayer) Epochs() []Event { return r.epochs }
