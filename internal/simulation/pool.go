// pool.go is the bounded deterministic worker pool shared by both engines.
// Compute-heavy node work (local training + payload construction, payload
// decoding + mixing) runs on the pool; everything that determines the event
// schedule, the byte ledger, or the recorded trace stays on the caller's
// goroutine. Determinism therefore does not depend on worker timing: tasks
// only read and write state owned by a single node, tasks of the same node
// are chained in program order, and the engines wait for a task exactly at
// the point where serial execution would have produced its result.
//
// With limit <= 1 the pool degenerates to inline execution at submit time,
// which is the serial reference the parallelism-invariance tests compare
// against.
package simulation

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/metrics"
)

// TaskPanicError is a panic in a pool task, recovered into that task's error:
// it reaches the engine through the task's future (or forEach's lowest-index
// rule) like any error a task returns, so Run closes the pool and returns it
// instead of taking the process down from a worker goroutine.
type TaskPanicError struct {
	// Task is the id the task was submitted under: the node for the engines'
	// per-node tasks, forEach's index, -1 for the async engine's graph draw.
	Task  int
	Value any    // what the task panicked with
	Stack []byte // the stack of the panicking goroutine
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("simulation: task %d panicked: %v\n%s", e.Task, e.Value, e.Stack)
}

// recoverTask is deferred, once, around every task body, pooled or inline.
func recoverTask(err *error, task int) {
	if v := recover(); v != nil {
		*err = &TaskPanicError{Task: task, Value: v, Stack: debug.Stack()}
	}
}

// runTask runs fn on the calling goroutine with a panic turned into its error.
func runTask(task int, fn func() error) (err error) {
	defer recoverTask(&err, task)
	return fn()
}

// future is the completion handle of one submitted task. The zero value is
// not usable; tasks create their futures through computePool.submit.
type future struct {
	ch  chan struct{}
	err error // written before ch is closed
}

// closedFutureCh backs the already-completed futures of the inline (serial)
// pool mode, where submit runs the task before returning.
var closedFutureCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// doneFuture is the shared completed-successfully future: inline submissions
// return it instead of allocating a future (and a channel) per task, which
// keeps the serial scheduler's steady state allocation-free.
var doneFuture = &future{ch: closedFutureCh}

// wait blocks until the task has run and returns its error. A nil future
// counts as an already-completed task.
func (f *future) wait() error {
	if f == nil {
		return nil
	}
	<-f.ch
	return f.err
}

// computePool executes tasks on a bounded set of worker goroutines.
type computePool struct {
	limit int
	tasks chan func()
	wg    sync.WaitGroup

	// telPooled/telInline count submissions dispatched to a worker vs run
	// inline — the pool-utilization split. Nil when telemetry is off.
	telPooled *metrics.Counter
	telInline *metrics.Counter
}

// newComputePool starts a pool with the given concurrency limit. limit <= 1
// creates a pool that runs every task inline on the submitting goroutine.
func newComputePool(limit int) *computePool {
	p := &computePool{limit: limit}
	if limit > 1 {
		p.tasks = make(chan func(), 2*limit)
		for i := 0; i < limit; i++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				for fn := range p.tasks {
					fn()
				}
			}()
		}
	}
	return p
}

// close shuts the workers down. Callers must have waited for every submitted
// future first (the engines wait on all node tails before closing), so no
// chained submission can race the close.
func (p *computePool) close() {
	if p.tasks != nil {
		close(p.tasks)
		p.wg.Wait()
	}
}

// submit schedules fn to run after prev completes (prev may be nil) and
// returns its future. If prev failed, fn is skipped and the error propagates
// to the new future, so a node's chain stops at its first failure. task names
// fn in a TaskPanicError.
func (p *computePool) submit(prev *future, task int, fn func() error) *future {
	if p.tasks == nil {
		// Inline mode: prev is always complete here because every earlier
		// submission ran inline too, so its error (if any) can propagate by
		// returning prev itself, and a successful run needs no fresh future.
		if p.telInline != nil {
			p.telInline.Inc()
		}
		if prev != nil && prev.err != nil {
			return prev
		}
		if err := runTask(task, fn); err != nil {
			return &future{ch: closedFutureCh, err: err}
		}
		return doneFuture
	}
	if p.telPooled != nil {
		p.telPooled.Inc()
	}
	f := &future{ch: make(chan struct{})}
	run := func() {
		if prev != nil {
			if err := prev.wait(); err != nil {
				f.err = err
				close(f.ch)
				return
			}
		}
		f.err = runTask(task, fn)
		close(f.ch)
	}
	if prev == nil {
		p.tasks <- run
		return f
	}
	// Chained task: hand the dependency wait to a shim goroutine so a pool
	// worker is never parked on a future it cannot help complete.
	go func() {
		<-prev.ch
		p.tasks <- run
	}()
	return f
}

// msgsPool recycles the per-aggregation payload maps of the async scheduler.
// Maps are acquired on the event-loop goroutine and released by pool workers
// after Aggregate consumes them, so access is mutex-guarded. put clears the
// map so recycled maps never pin payload buffers.
type msgsPool struct {
	mu   sync.Mutex
	free []map[int][]byte
}

// get returns an empty map, reusing a recycled one when available.
func (p *msgsPool) get(capHint int) map[int][]byte {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return m
	}
	p.mu.Unlock()
	return make(map[int][]byte, capHint)
}

// put clears m and returns it to the pool.
func (p *msgsPool) put(m map[int][]byte) {
	for k := range m {
		delete(m, k)
	}
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// forEach runs fn(i) for i in [0, n) on the pool and returns the
// lowest-index error (deterministic, unlike first-error-wins collection).
func (p *computePool) forEach(n int, fn func(i int) error) error {
	run := func(i int) (err error) {
		defer recoverTask(&err, i)
		return fn(i)
	}
	if p.tasks == nil || n <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.tasks <- func() {
			errs[i] = run(i)
			wg.Done()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
