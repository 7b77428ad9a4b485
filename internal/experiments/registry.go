package experiments

import (
	"fmt"

	"repro/internal/simulation"
)

// Opts carries the experiment-specific flags of cmd/jwins-bench.
type Opts struct {
	// Datasets limits table1 and fig5 to the named workloads (nil = all five).
	Datasets []string
	// EvalSample forces ext-scale's rotating eval subset size on every arm
	// when > 0 (0 = an 8-node sample below 2048 nodes, a 64-node sample from
	// 2048 up).
	EvalSample int
}

// Experiment is one entry of the registry.
type Experiment struct {
	Name string
	// Reads names the jwins-bench flags (Opts fields) the experiment reads.
	Reads []string
	Run   func(scale Scale, seed uint64, opts Opts) (*Table, error)
}

// Experiments lists every experiment in paper order, then claims, which
// reads the paper's tables over several seeds: what jwins-bench -exp all
// runs.
var Experiments = []Experiment{
	{"fig2", nil, fig2},
	{"fig3", nil, fig3},
	{"table1", []string{"datasets"}, table1},
	{"fig5", []string{"datasets"}, fig5},
	{"fig6", nil, fig6},
	{"fig7", nil, fig7},
	{"fig8", nil, fig8},
	{"fig9", nil, fig9},
	{"fig10", nil, fig10},
	{"ext-faults", nil, extFaults},
	{"ext-asyncchurn", nil, extAsyncChurn},
	{"ext-dyntopo", nil, extDynTopo},
	{"ext-scale", []string{"eval-sample"}, extScale},
	{"ext-semiasync", nil, extSemiAsync},
	{"claims", nil, claims},
}

// arm is one labelled variant of an experiment's base RunSpec.
type arm struct {
	label string
	spec  func(*RunSpec)
}

// algoArms is one arm per algorithm, labelled with its name.
func algoArms(kinds ...Algo) []arm {
	arms := make([]arm, len(kinds))
	for i, k := range kinds {
		k := k
		arms[i] = arm{string(k), func(s *RunSpec) { s.Algo.Kind = k }}
	}
	return arms
}

// sweep runs base under each arm, in order.
func sweep(base RunSpec, arms []arm) ([]*simulation.Result, error) {
	rs := make([]*simulation.Result, len(arms))
	for i, a := range arms {
		spec := base
		a.spec(&spec)
		r, err := Run(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.label, err)
		}
		rs[i] = r
	}
	return rs, nil
}

// curvesOf keys each arm's learning curve by its label.
func curvesOf(arms []arm, rs []*simulation.Result) map[string][]simulation.RoundMetrics {
	curves := make(map[string][]simulation.RoundMetrics, len(arms))
	for i, a := range arms {
		curves[a.label] = rs[i].Rounds
	}
	return curves
}

// acc is a run's final accuracy in percent.
func acc(r *simulation.Result) float64 { return r.FinalAccuracy * 100 }
