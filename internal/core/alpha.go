package core

import (
	"fmt"

	"repro/internal/vec"
)

// AlphaDist is the randomized cut-off distribution of Section III-B: every
// round, every node independently samples a sharing fraction alpha from it.
// The expectation of the distribution is the communication budget.
type AlphaDist struct {
	Values []float64 // sharing fractions in (0, 1]
	Probs  []float64 // matching probabilities, summing to 1
}

// UniformAlphas builds the uniform distribution over the given fractions.
// The paper's default is Uniform{10, 15, 20, 25, 30, 40, 100}%.
func UniformAlphas(values ...float64) AlphaDist {
	probs := make([]float64, len(values))
	for i := range probs {
		probs[i] = 1 / float64(len(values))
	}
	return AlphaDist{Values: append([]float64(nil), values...), Probs: probs}
}

// DefaultAlphas is the paper's default cut-off distribution
// (uniform over {10, 15, 20, 25, 30, 40, 100}%, mean ~34%).
func DefaultAlphas() AlphaDist {
	return UniformAlphas(0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 1.00)
}

// BudgetAlphas returns the paper's low-budget distributions:
// budget 0.20 -> p(100%) = 0.1, p(10%) = 0.9;
// budget 0.10 -> p(100%) = 0.05, p(5%) = 0.95.
func BudgetAlphas(budget float64) (AlphaDist, error) {
	switch {
	case budget == 0.20:
		return AlphaDist{Values: []float64{1.00, 0.10}, Probs: []float64{0.1, 0.9}}, nil
	case budget == 0.10:
		return AlphaDist{Values: []float64{1.00, 0.05}, Probs: []float64{0.05, 0.95}}, nil
	default:
		return AlphaDist{}, fmt.Errorf("core: no predefined alpha distribution for budget %v", budget)
	}
}

// Validate checks the distribution is well formed.
func (d AlphaDist) Validate() error {
	if len(d.Values) == 0 || len(d.Values) != len(d.Probs) {
		return fmt.Errorf("core: alpha distribution needs matching values/probs, got %d/%d", len(d.Values), len(d.Probs))
	}
	var sum float64
	for i, v := range d.Values {
		if v <= 0 || v > 1 {
			return fmt.Errorf("core: alpha value %v out of (0, 1]", v)
		}
		if d.Probs[i] < 0 {
			return fmt.Errorf("core: negative probability %v", d.Probs[i])
		}
		sum += d.Probs[i]
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("core: alpha probabilities sum to %v, want 1", sum)
	}
	return nil
}

// Sample draws one sharing fraction.
func (d AlphaDist) Sample(rng *vec.RNG) float64 {
	u := rng.Float64()
	var cum float64
	for i, p := range d.Probs {
		cum += p
		if u < cum {
			return d.Values[i]
		}
	}
	return d.Values[len(d.Values)-1]
}

// Mean returns the expected sharing fraction (the communication budget).
func (d AlphaDist) Mean() float64 {
	var m float64
	for i, v := range d.Values {
		m += v * d.Probs[i]
	}
	return m
}
