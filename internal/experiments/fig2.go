package experiments

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/dwt"
	"repro/internal/fourier"
	"repro/internal/sparsify"
	"repro/internal/vec"
)

// fig2 reproduces Figure 2: a single node trains on the CIFAR-10-like task;
// after every epoch the model-so-far is sparsified to 10% of coefficients in
// each transform domain, reconstructed, and scored with MSE against the
// uncompressed model. Lower cumulative error = less information loss, and
// the paper's ordering is Wavelet < FFT < random sampling.
func fig2(scale Scale, seed uint64, _ Opts) (*Table, error) {
	w, err := NewWorkload("cifar10", scale, 0, seed)
	if err != nil {
		return nil, err
	}
	epochs := 16
	if scale == Micro {
		epochs = 6
	}
	rng := vec.NewRNG(seed)
	model := w.NewModel(rng.Split())
	dim := model.ParamCount()

	// Single-node training uses all data.
	all := make([]int, len(w.Dataset.Train))
	for i := range all {
		all[i] = i
	}
	loader := datasets.NewLoader(w.Dataset, all, w.Batch, rng.Split())

	wav, err := dwt.NewTransformer(dim, dwt.MustByName("sym2"), 4)
	if err != nil {
		return nil, err
	}
	fft, err := fourier.NewTransformer(dim)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Figure 2: cumulative reconstruction MSE, 10% sparsification budget",
		Columns: []Column{
			{"epoch", "%d", "epoch", "%-6d"},
			{"wavelet_mse", "%.8f", "wavelet", "%14.6f"},
			{"fft_mse", "%.8f", "fft", "%14.6f"},
			{"random_mse", "%.8f", "random", "%14.6f"},
		},
	}
	var cumWav, cumFFT, cumRand float64
	params := make([]float64, dim)
	budget := dim / 10

	randRNG := rng.Split()
	for epoch := 1; epoch <= epochs; epoch++ {
		for b := 0; b < loader.BatchesPerEpoch(); b++ {
			x, y := loader.Next()
			model.TrainBatch(x, y, w.Opts.LR)
		}
		model.CopyParams(params)

		cumWav += reconstructionMSE(wav, params, budget, nil)
		cumFFT += reconstructionMSE(fft, params, budget, nil)
		cumRand += reconstructionMSE(dwt.Identity{N: dim}, params, budget, randRNG)

		t.Rows = append(t.Rows, []any{epoch, cumWav, cumFFT, cumRand})
	}
	t.Notes = []string{fmt.Sprintf("paper's ordering wavelet < fft < random holds: %v", cumWav < cumFFT && cumFFT < cumRand)}
	return t, nil
}

// transform abstracts the two coefficient domains plus identity.
type transform interface {
	CoeffLen() int
	Forward(x, out []float64)
	Inverse(coeffs, out []float64)
}

// reconstructionMSE sparsifies params to `budget` coefficients in the given
// domain (TopK by magnitude, or uniformly at random when randRNG != nil) and
// returns the MSE of the reconstruction against the original.
func reconstructionMSE(tr transform, params []float64, budget int, randRNG *vec.RNG) float64 {
	cd := tr.CoeffLen()
	coeffs := make([]float64, cd)
	tr.Forward(params, coeffs)
	var keep []int
	if randRNG != nil {
		keep = randRNG.SampleWithoutReplacement(cd, min(budget, cd))
	} else {
		keep = sparsify.TopKIndices(coeffs, budget)
	}
	sparse := make([]float64, cd)
	for _, i := range keep {
		sparse[i] = coeffs[i]
	}
	out := make([]float64, len(params))
	tr.Inverse(sparse, out)
	return vec.MSE(params, out)
}
