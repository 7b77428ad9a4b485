package nn

// Lazy is a copy-on-write Trainable: a placeholder that answers parameter
// reads from a shared initial vector and only builds its real model on the
// first operation that needs one (a write via SetParams, or compute via
// TrainBatch/EvalBatch). Fleet construction at 10k nodes then costs one
// template model plus a small wrapper per node; the per-node layer graphs and
// parameter storage materialize on first divergence.
//
// A Lazy is not safe for concurrent use, matching every other Trainable: the
// engines serialize all access to one node's model through its task chain.
// Different nodes' Lazy values may materialize concurrently because each owns
// its build closure and only reads the shared initial vector.
type Lazy struct {
	count   int
	initial []float64 // shared, read-only; never written through
	build   func() Trainable
	m       Trainable
}

// NewLazy wraps a deferred model. initial is the shared flat parameter vector
// every node starts from (callers must not mutate it afterwards); build
// constructs the concrete model and must be callable exactly once. count is
// the model's flat parameter dimension, which must equal len(initial).
func NewLazy(count int, initial []float64, build func() Trainable) *Lazy {
	return &Lazy{count: count, initial: initial, build: build}
}

// Materialized reports whether the concrete model has been built.
func (l *Lazy) Materialized() bool { return l.m != nil }

// materialize builds the concrete model and installs the shared initial
// weights, so the first divergence starts from the same state an eagerly
// built node would have.
func (l *Lazy) materialize() Trainable {
	if l.m == nil {
		l.m = l.build()
		l.build = nil
		l.m.SetParams(l.initial)
	}
	return l.m
}

// ParamCount returns the flat parameter dimension without materializing.
func (l *Lazy) ParamCount() int { return l.count }

// CopyParams reads the current parameters. Before materialization that is the
// shared initial vector — algorithm constructors read it without forcing a
// build.
func (l *Lazy) CopyParams(dst []float64) {
	if l.m == nil {
		copy(dst, l.initial)
		return
	}
	l.m.CopyParams(dst)
}

// SharedParams returns the shared initial vector, read-only, while it is the
// model's parameters — before materialization — and nil after.
func (l *Lazy) SharedParams() []float64 {
	if l.m != nil {
		return nil
	}
	return l.initial
}

// SetParams is the first write path (aggregation installs averaged weights):
// it materializes, then overwrites.
func (l *Lazy) SetParams(src []float64) {
	l.materialize().SetParams(src)
}

// TrainBatch materializes on first local training.
func (l *Lazy) TrainBatch(x *Tensor, y []float64, lr float64) float64 {
	return l.materialize().TrainBatch(x, y, lr)
}

// EvalBatch materializes on first evaluation: evaluation runs a real forward
// pass, and building the layer graph once here is what makes sampled
// evaluation pay off — unsampled nodes never build one.
func (l *Lazy) EvalBatch(x *Tensor, y []float64) (sumLoss float64, correct, count int) {
	return l.materialize().EvalBatch(x, y)
}
