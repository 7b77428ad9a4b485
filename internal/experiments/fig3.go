package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/simulation"
)

// fig3 reproduces Figure 3 by instrumenting a JWINS run on the CIFAR-10-like
// workload with the default alpha distribution: each node's sharing fraction
// in one representative round (left chart; the text table) and the mean
// across nodes per round (right chart; the CSV's second section).
func fig3(scale Scale, seed uint64, _ Opts) (*Table, error) {
	w, err := NewWorkload("cifar10", scale, 0, seed)
	if err != nil {
		return nil, err
	}
	rounds := 40
	if scale == Micro {
		rounds = 10
	}
	sampled := rounds / 2
	expected := core.DefaultAlphas().Mean()
	perRound := &Table{Columns: []Column{{Name: "round", CSV: "%d"}, {Name: "mean_alpha", CSV: "%.4f"}}}
	t := &Table{
		Title: fmt.Sprintf("Figure 3: randomized cut-off in JWINS\nshared fraction per node in round %d:", sampled),
		Columns: []Column{
			{"node", "%d", "node", "  %-4d"},
			{Name: "alpha", CSV: "%.4f"},
			{Head: "shared", Text: "%6.0f%%"},
		},
		Next: perRound,
	}

	spec := RunSpec{Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: rounds, Seed: seed}
	nodes, err := BuildFleet(w, spec.Algo, spec.Seed)
	if err != nil {
		return nil, err
	}
	var sum, spread float64
	spec.OnRound = func(rm simulation.RoundMetrics) {
		perRound.Rows = append(perRound.Rows, []any{len(perRound.Rows), rm.MeanAlpha})
		sum += rm.MeanAlpha
		spread = math.Max(spread, math.Abs(rm.MeanAlpha-expected))
		if rm.Round == sampled {
			for _, n := range nodes {
				if j, ok := n.(*core.JWINSNode); ok {
					t.Rows = append(t.Rows, []any{len(t.Rows), j.LastAlpha, j.LastAlpha * 100})
				}
			}
		}
	}
	if _, err := runWithNodes(spec, nodes); err != nil {
		return nil, err
	}
	mean := sum / float64(len(perRound.Rows))
	t.Notes = []string{
		fmt.Sprintf("mean shared fraction over %d rounds: %.1f%% (analytic E[alpha] = %.1f%%)", len(perRound.Rows), mean*100, expected*100),
		fmt.Sprintf("max per-round deviation from E[alpha]: %.1f%%", spread*100),
	}
	return t, nil
}
