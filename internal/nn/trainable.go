package nn

import (
	"fmt"
	"math"
)

// Trainable is the model view the decentralized learning engine operates on:
// a flat parameter vector plus minibatch train and eval steps. All models in
// the zoo (CNN classifiers, the stacked LSTM, matrix factorization) implement
// it, which is what lets JWINS treat every architecture identically, as the
// paper emphasizes ("JWINS considers models as flat vectors of parameters").
type Trainable interface {
	// ParamCount returns the flat parameter dimension.
	ParamCount() int
	// CopyParams writes the current flat parameter vector into dst.
	CopyParams(dst []float64)
	// SetParams overwrites the parameters from a flat vector.
	SetParams(src []float64)
	// TrainBatch runs forward + backward + one SGD step, returning the batch loss.
	TrainBatch(x *Tensor, y []float64, lr float64) float64
	// EvalBatch returns summed loss, number of correct predictions, and the
	// number of scored predictions for the batch.
	EvalBatch(x *Tensor, y []float64) (sumLoss float64, correct, count int)
}

// Classifier wraps a Sequential network with a loss for classification or
// sequence-classification tasks. If the network emits [N, T, K] (sequence
// models), logits and targets are flattened to [N*T, K] positions.
type Classifier struct {
	Net    *Sequential
	LossFn Loss
	opt    SGD

	// Reused reshape headers for sequence outputs and their gradients.
	flatView, gradView Tensor
}

var _ Trainable = (*Classifier)(nil)

// NewClassifier builds a softmax-cross-entropy classifier over net.
func NewClassifier(net *Sequential) *Classifier {
	return &Classifier{Net: net, LossFn: SoftmaxCrossEntropy{}}
}

// ParamCount implements Trainable.
func (c *Classifier) ParamCount() int { return c.Net.ParamCount() }

// CopyParams implements Trainable.
func (c *Classifier) CopyParams(dst []float64) { c.Net.CopyParams(dst) }

// SetParams implements Trainable.
func (c *Classifier) SetParams(src []float64) { c.Net.SetParams(src) }

// logits2D flattens [N, T, K] sequence logits to [N*T, K] through view.
func logits2D(out, view *Tensor) *Tensor {
	switch len(out.Shape) {
	case 2:
		return out
	case 3:
		return view.alias(out, out.Shape[0]*out.Shape[1], out.Shape[2])
	default:
		panic(fmt.Sprintf("nn: classifier output shape %v unsupported", out.Shape))
	}
}

// lossAndGrad computes the loss and its gradient, into the workspace's grad
// buffer when the loss supports in-place computation.
func (c *Classifier) lossAndGrad(w *workspace, flat *Tensor, y []float64) (float64, *Tensor) {
	if li, ok := c.LossFn.(lossInto); ok {
		grad := w.loss.ensure(flat.Shape...)
		return li.ComputeInto(flat, y, grad), grad
	}
	return c.LossFn.Compute(flat, y)
}

// TrainBatch implements Trainable.
func (c *Classifier) TrainBatch(x *Tensor, y []float64, lr float64) float64 {
	w := acquireWorkspace(c.Net)
	defer w.release()
	w.attachGrads()
	c.Net.ZeroGrad()
	out := c.Net.Forward(x, true)
	flat := logits2D(out, &c.flatView)
	loss, grad := c.lossAndGrad(w, flat, y)
	if len(out.Shape) != 2 {
		grad = c.gradView.alias(grad, out.Shape...) // sequence outputs: back to [N, T, K]
	}
	c.Net.backwardParams(grad)
	c.opt.Step(lr, c.Net.Params())
	return loss
}

// EvalBatch implements Trainable.
func (c *Classifier) EvalBatch(x *Tensor, y []float64) (float64, int, int) {
	w := acquireWorkspace(c.Net)
	defer w.release()
	out := c.Net.Forward(x, false)
	flat := logits2D(out, &c.flatView)
	loss, _ := c.lossAndGrad(w, flat, y)
	m := flat.Shape[0]
	correct := 0
	for i := 0; i < m; i++ {
		if Argmax(flat, i) == int(y[i]) {
			correct++
		}
	}
	return loss * float64(m), correct, m
}

// MatrixFactorization is the paper's MovieLens recommender: biased matrix
// factorization r̂(u,i) = μ + b_u + b_i + p_u · q_i trained with MSE.
// Batches carry (user, item) id pairs in x ([N, 2]) and ratings in y.
// A prediction counts as "correct" when it rounds to the true rating within
// 0.5, mirroring accuracy-style reporting for recommendation.
type MatrixFactorization struct {
	Users, Items, K int
	UserEmb         *Param
	ItemEmb         *Param
	UserBias        *Param
	ItemBias        *Param
	GlobalBias      *Param

	params []*Param
	count  int
}

var _ Trainable = (*MatrixFactorization)(nil)

// NewMatrixFactorization builds an MF model with N(0, 0.1) embeddings. Its
// blocks carry no Grad: TrainBatch applies every sample's update in place.
func NewMatrixFactorization(users, items, k int, rng interface{ NormFloat64() float64 }) *MatrixFactorization {
	block := func(name string, n int) *Param { return &Param{Name: name, Data: make([]float64, n)} }
	m := &MatrixFactorization{
		Users:      users,
		Items:      items,
		K:          k,
		UserEmb:    block("mf.user_emb", users*k),
		ItemEmb:    block("mf.item_emb", items*k),
		UserBias:   block("mf.user_bias", users),
		ItemBias:   block("mf.item_bias", items),
		GlobalBias: block("mf.global_bias", 1),
	}
	for i := range m.UserEmb.Data {
		m.UserEmb.Data[i] = rng.NormFloat64() * 0.1
	}
	for i := range m.ItemEmb.Data {
		m.ItemEmb.Data[i] = rng.NormFloat64() * 0.1
	}
	m.GlobalBias.Data[0] = 3 // ratings live in [1, 5]
	m.params = []*Param{m.UserEmb, m.ItemEmb, m.UserBias, m.ItemBias, m.GlobalBias}
	for _, p := range m.params {
		m.count += len(p.Data)
	}
	return m
}

// ParamCount implements Trainable.
func (m *MatrixFactorization) ParamCount() int { return m.count }

// CopyParams implements Trainable.
func (m *MatrixFactorization) CopyParams(dst []float64) { copyParamsOut(dst, m.params, m.count) }

// SetParams implements Trainable.
func (m *MatrixFactorization) SetParams(src []float64) { copyParamsIn(src, m.params, m.count) }

func (m *MatrixFactorization) predict(u, it int) float64 {
	pu := m.UserEmb.Data[u*m.K : (u+1)*m.K]
	qi := m.ItemEmb.Data[it*m.K : (it+1)*m.K]
	var dot float64
	for k := range pu {
		dot += pu[k] * qi[k]
	}
	return m.GlobalBias.Data[0] + m.UserBias.Data[u] + m.ItemBias.Data[it] + dot
}

func (m *MatrixFactorization) ids(x *Tensor, i int) (int, int) {
	u := int(x.Data[2*i])
	it := int(x.Data[2*i+1])
	if u < 0 || u >= m.Users || it < 0 || it >= m.Items {
		panic(fmt.Sprintf("nn: MF ids (%d, %d) out of range (%d users, %d items)", u, it, m.Users, m.Items))
	}
	return u, it
}

// TrainBatch implements Trainable. x is [N, 2] (user, item) ids; y ratings.
// MF embedding gradients are per-sample sparse, so TrainBatch performs one
// online SGD sweep over the batch (each sample's squared-error gradient is
// applied immediately), which is the standard way to train MF recommenders.
func (m *MatrixFactorization) TrainBatch(x *Tensor, y []float64, lr float64) float64 {
	n := x.Shape[0]
	var total float64
	const inv = 2.0 // d(err^2)/dpred for a single sample
	for i := 0; i < n; i++ {
		u, it := m.ids(x, i)
		err := m.predict(u, it) - y[i]
		total += err * err
		g := inv * err
		pu := m.UserEmb.Data[u*m.K : (u+1)*m.K]
		qi := m.ItemEmb.Data[it*m.K : (it+1)*m.K]
		for k := 0; k < m.K; k++ {
			du := g * qi[k]
			di := g * pu[k]
			pu[k] -= lr * du
			qi[k] -= lr * di
		}
		m.UserBias.Data[u] -= lr * g
		m.ItemBias.Data[it] -= lr * g
		m.GlobalBias.Data[0] -= lr * g
	}
	return total / float64(n)
}

// EvalBatch implements Trainable.
func (m *MatrixFactorization) EvalBatch(x *Tensor, y []float64) (float64, int, int) {
	n := x.Shape[0]
	var sumLoss float64
	correct := 0
	for i := 0; i < n; i++ {
		u, it := m.ids(x, i)
		pred := m.predict(u, it)
		d := pred - y[i]
		sumLoss += d * d
		if math.Abs(d) < 0.5 {
			correct++
		}
	}
	return sumLoss, correct, n
}
