package nn

import "sync"

// workspace is the working set of one running Classifier.TrainBatch or
// EvalBatch: every layer's outputs, input gradients and the caches Backward
// reads, the loss gradient, and in a training call the parameter gradients.
// Models keep their parameters and optimizer state; a call attaches its
// network to a workspace off the free list and detaches and releases it on
// return, so a fleet holds as many working sets as it ever ran calls at once
// instead of one per model. A recycled workspace keeps its last user's
// values, and users differ in architecture: every buffer is shaped where it
// is written and written in full before it is read (cleared first where it
// is accumulated into).
type workspace struct {
	states []any // layer states of every type; the first taken are attached
	taken  int
	loss   tscratch
	grads  []float64   // the attached network's Param.Grad, end to end
	net    *Sequential // the attached network
}

// stateful is a layer whose call state a workspace can hold: attach points
// it at a state of its type in w, or, for a nil w, drops the state.
type stateful interface{ attach(w *workspace) }

// bind attaches the layers to states in w, or detaches them.
func (s *Sequential) bind(w *workspace) {
	for _, l := range s.Layers {
		if st, ok := l.(stateful); ok {
			st.attach(w)
		}
	}
}

// takeState takes a state of type T from w that no layer holds yet, making
// one when there is none; a nil w yields nil.
func takeState[T any](w *workspace) *T {
	if w == nil {
		return nil
	}
	i := w.taken
	for ; i < len(w.states); i++ {
		if _, ok := w.states[i].(*T); ok {
			break
		}
	}
	if i == len(w.states) {
		w.states = append(w.states, new(T))
	}
	w.states[w.taken], w.states[i] = w.states[i], w.states[w.taken]
	w.taken++
	return w.states[w.taken-1].(*T)
}

// own returns *p, making it first: a layer driven directly, outside any
// Classifier call, keeps a state of its own.
func own[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// workspaceList is the free list shared by every model in the process. It
// is a mutex-guarded list and not a sync.Pool because a GC must not empty
// it: the zero-allocation steady state and the number of live workspaces
// would stop being deterministic.
var workspaceList struct {
	mu   sync.Mutex
	free []*workspace
}

// acquireWorkspace attaches net to the most recently released workspace,
// whose buffers are the likeliest to still be in cache, or to a new one when
// every workspace is in use. The caller must release it.
func acquireWorkspace(net *Sequential) *workspace {
	var w *workspace
	workspaceList.mu.Lock()
	if n := len(workspaceList.free); n > 0 {
		w, workspaceList.free = workspaceList.free[n-1], workspaceList.free[:n-1]
	}
	workspaceList.mu.Unlock()
	if w == nil {
		w = new(workspace)
	}
	w.net, w.taken = net, 0
	net.bind(w)
	return w
}

// attachGrads points every parameter's Grad into the workspace for a training
// call; release detaches them. The values are the last user's until ZeroGrad
// clears them.
func (w *workspace) attachGrads() {
	arena := grow(&w.grads, w.net.paramCount)
	for _, p := range w.net.params {
		n := len(p.Data)
		p.Grad, arena = arena[:n:n], arena[n:]
	}
}

// release detaches the network and its gradients and returns w to the free
// list.
func (w *workspace) release() {
	w.net.bind(nil)
	for _, p := range w.net.params {
		p.Grad = nil
	}
	w.net = nil
	workspaceList.mu.Lock()
	workspaceList.free = append(workspaceList.free, w)
	workspaceList.mu.Unlock()
}
