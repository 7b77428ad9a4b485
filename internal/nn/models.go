package nn

import "repro/internal/vec"

// ModelConfig scales the model zoo. Scale=1 mirrors the paper's architectures
// (GN-LeNet etc.); smaller scales shrink channel/hidden widths so the full
// multi-node experiment suite runs quickly on laptop CPUs while keeping the
// architecture shape (conv → GN → pool stacks, stacked LSTM, MF embeddings).
type ModelConfig struct {
	Channels, Height, Width int
	Classes                 int
	// WidthScale divides the layer widths of the paper architecture.
	// 1 = paper scale.
	WidthScale int
}

func scaled(width, scale int) int {
	if scale <= 1 {
		return width
	}
	w := width / scale
	if w < 2 {
		w = 2
	}
	return w
}

// NewGNLeNet builds the GN-LeNet image classifier of Hsieh et al. used by
// the paper for CIFAR-10: two conv(5x5) + GroupNorm + ReLU + MaxPool stages
// followed by a fully connected softmax head.
func NewGNLeNet(cfg ModelConfig, rng *vec.RNG) *Classifier {
	c1 := scaled(32, cfg.WidthScale)
	c2 := scaled(32, cfg.WidthScale)
	groups := 2
	if c1 < 4 {
		groups = 1
	}
	conv1 := NewConv2D(cfg.Channels, c1, 5, 2, rng)
	conv2 := NewConv2D(c1, c2, 5, 2, rng)
	h2 := cfg.Height / 4
	w2 := cfg.Width / 4
	net := NewSequential(
		conv1,
		NewGroupNorm(c1, groups),
		&ReLU{},
		NewMaxPool2D(2),
		conv2,
		NewGroupNorm(c2, groups),
		&ReLU{},
		NewMaxPool2D(2),
		&Flatten{},
		NewDense(c2*h2*w2, cfg.Classes, rng),
	)
	return NewClassifier(net)
}

// NewLEAFCNN builds the two-conv CNN used by the LEAF benchmarks (FEMNIST
// and CelebA in the paper): conv(5x5) + ReLU + pool stacks with a hidden
// dense layer before the softmax head.
func NewLEAFCNN(cfg ModelConfig, rng *vec.RNG) *Classifier {
	c1 := scaled(32, cfg.WidthScale)
	c2 := scaled(64, cfg.WidthScale)
	hidden := scaled(128, cfg.WidthScale)
	h2 := cfg.Height / 4
	w2 := cfg.Width / 4
	net := NewSequential(
		NewConv2D(cfg.Channels, c1, 5, 2, rng),
		&ReLU{},
		NewMaxPool2D(2),
		NewConv2D(c1, c2, 5, 2, rng),
		&ReLU{},
		NewMaxPool2D(2),
		&Flatten{},
		NewDense(c2*h2*w2, hidden, rng),
		&ReLU{},
		NewDense(hidden, cfg.Classes, rng),
	)
	return NewClassifier(net)
}

// CharLSTMConfig sizes the stacked-LSTM next-character model (the paper's
// Shakespeare task uses embedding 8 and two LSTM layers of 256 units).
type CharLSTMConfig struct {
	Vocab  int
	Embed  int
	Hidden int
	Layers int
}

// NewCharLSTM builds the stacked-LSTM next-character model: embedding →
// Layers× LSTM → dense softmax over the vocabulary at every position.
func NewCharLSTM(cfg CharLSTMConfig, rng *vec.RNG) *Classifier {
	layers := []Layer{NewEmbedding(cfg.Vocab, cfg.Embed, rng)}
	in := cfg.Embed
	for i := 0; i < cfg.Layers; i++ {
		layers = append(layers, NewLSTM(in, cfg.Hidden, rng))
		in = cfg.Hidden
	}
	layers = append(layers, &seqDense{Dense: NewDense(in, cfg.Vocab, rng)})
	return NewClassifier(NewSequential(layers...))
}

// seqDense applies a Dense layer independently at every timestep of a
// [N, T, In] tensor, producing [N, T, Out].
type seqDense struct {
	*Dense
	flatX, seqY, flatGrad, seqDX Tensor // reused [N*T, ·] and [N, T, ·] views
}

// Forward implements Layer.
func (s *seqDense) Forward(x *Tensor, train bool) *Tensor {
	n, t := x.Shape[0], x.Shape[1]
	out := s.Dense.Forward(s.flatX.alias(x, n*t, x.Shape[2]), train)
	return s.seqY.alias(out, n, t, s.Out)
}

// Backward implements Layer.
func (s *seqDense) Backward(grad *Tensor) *Tensor {
	n, t := grad.Shape[0], grad.Shape[1]
	dx := s.Dense.Backward(s.flatGrad.alias(grad, n*t, grad.Shape[2]))
	return s.seqDX.alias(dx, n, t, s.In)
}

// NewMLP builds a small fully connected classifier, useful for fast tests
// and the quickstart example. Inputs of any shape are flattened to [N, in].
func NewMLP(in, hidden, classes int, rng *vec.RNG) *Classifier {
	return NewClassifier(NewSequential(
		&Flatten{},
		NewDense(in, hidden, rng),
		&ReLU{},
		NewDense(hidden, classes, rng),
	))
}
