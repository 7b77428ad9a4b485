package experiments

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/simulation"
)

// table1 reproduces Table I / Figure 4: full-sharing vs random sampling vs
// JWINS on the five workloads for a fixed round budget. chance is the test
// set's majority-class rate, the accuracy an arm must beat to have learnt.
func table1(scale Scale, seed uint64, opts Opts) (*Table, error) {
	t := &Table{
		Title: "Table I: final test accuracies and network transfer (fixed rounds)",
		Columns: []Column{
			{"dataset", "%s", "dataset", "%-12s"},
			{"rounds", "%d", "rounds", "%7d"},
			{"chance", "%.2f", "chance", "| %7.1f%%"},
			{"acc_full", "%.2f", "acc:full", "%7.1f%%"},
			{"acc_random", "%.2f", "acc:rand", "%7.1f%%"},
			{"acc_jwins", "%.2f", "acc:jwins", "%7.1f%%"},
			{Name: "loss_full", CSV: "%.4f"},
			{Name: "loss_random", CSV: "%.4f"},
			{Name: "loss_jwins", CSV: "%.4f"},
			{"bytes_full", "%d", "sent:full", "| %12s"},
			{Name: "bytes_random", CSV: "%d"},
			{"bytes_jwins", "%d", "sent:jwins", "%12s"},
			{Name: "meta_jwins", CSV: "%d"},
			{Name: "savings", CSV: "%.4f"},
			{Head: "savings", Text: "| %7.1f%%"},
		},
		CurvesNote: "figure 4 curves",
	}
	arms := algoArms(AlgoFull, AlgoRandom, AlgoJWINS)
	for _, name := range opts.workloads() {
		w, err := NewWorkload(name, scale, 0, seed)
		if err != nil {
			return nil, err
		}
		rs, err := sweep(RunSpec{Workload: w, Seed: seed}, arms)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		full, random, jwins := rs[0], rs[1], rs[2]
		savings := 1 - float64(jwins.TotalBytes)/float64(full.TotalBytes)
		t.Rows = append(t.Rows, []any{name, w.Rounds, w.Dataset.MajorityRate() * 100, acc(full), acc(random), acc(jwins),
			full.FinalLoss, random.FinalLoss, jwins.FinalLoss,
			byteCount(full.TotalBytes), random.TotalBytes, byteCount(jwins.TotalBytes), jwins.MetaBytes,
			savings, savings * 100})
		t.Curves = append(t.Curves, Curves{"dataset=" + name, curvesOf(arms, rs)})
	}
	return t, nil
}

// workloads is the Datasets filter, or every workload when it is empty.
func (o Opts) workloads() []string {
	if len(o.Datasets) == 0 {
		return WorkloadNames
	}
	return o.Datasets
}

// fig5 reproduces Figure 5's protocol on each dataset: random sampling runs
// the fixed budget to set the target (its final accuracy, less 2% against
// eval noise); then every algorithm runs until it reaches that target.
func fig5(scale Scale, seed uint64, opts Opts) (*Table, error) {
	t := &Table{
		Title: "Figure 5: rounds and bytes to reach random sampling's accuracy",
		Columns: []Column{
			{"dataset", "%s", "dataset", "%-12s"},
			{"target_acc", "%.2f", "target", "%7.1f%%"},
			{"rounds_full", "%d", "r:full", "| %9d"},
			{"rounds_random", "%d", "r:rand", "%9d"},
			{"rounds_jwins", "%d", "r:jwins", "%9d"},
			{"bytes_full", "%d", "B:full", "| %11s"},
			{"bytes_random", "%d", "B:rand", "%11s"},
			{"bytes_jwins", "%d", "B:jwins", "%11s"},
			{"rounds_saved", "%d", "Δrounds", "| %7d"},
			{"byte_ratio", "%.3f", "Bx", "%5.1fx"},
		},
	}
	for _, name := range opts.workloads() {
		w, err := NewWorkload(name, scale, 0, seed)
		if err != nil {
			return nil, err
		}
		probe, err := Run(RunSpec{Workload: w, Algo: AlgoSpec{Kind: AlgoRandom}, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("%s: probe: %w", name, err)
		}
		target := probe.FinalAccuracy * 0.98
		rs, err := sweep(RunSpec{Workload: w, Rounds: 3 * w.Rounds, TargetAccuracy: target, Seed: seed},
			algoArms(AlgoFull, AlgoRandom, AlgoJWINS))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		full, random, jwins := rs[0], rs[1], rs[2]
		saved, ratio := 0, 0.0
		if random.RoundsToTarget > 0 && jwins.RoundsToTarget > 0 {
			saved = random.RoundsToTarget - jwins.RoundsToTarget
		}
		if jwins.BytesToTarget > 0 {
			ratio = float64(random.BytesToTarget) / float64(jwins.BytesToTarget)
		}
		t.Rows = append(t.Rows, []any{name, target * 100,
			full.RoundsToTarget, random.RoundsToTarget, jwins.RoundsToTarget,
			byteCount(full.BytesToTarget), byteCount(random.BytesToTarget), byteCount(jwins.BytesToTarget),
			saved, ratio})
	}
	return t, nil
}

// fig6 reproduces Figure 6 on the CIFAR-10-like workload: JWINS vs CHOCO at
// 20% and 10% communication budgets (the paper's alpha distributions and
// tuned gammas), for the same rounds and then to CHOCO's final accuracy.
// Bytes are per node.
func fig6(scale Scale, seed uint64, _ Opts) (*Table, error) {
	w, err := NewWorkload("cifar10", scale, 0, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 6: JWINS vs CHOCO under tight communication budgets (CIFAR-10-like)",
		Columns: []Column{
			{Name: "budget", CSV: "%.2f"},
			{Head: "budget", Text: "%6.0f%%"},
			{"gamma", "%.2f", "gamma", "%5.1f"},
			{"rounds", "%d", "rounds", "%6d"},
			{"acc_choco", "%.2f", "acc:choco", "| %8.1f%%"},
			{"acc_jwins", "%.2f", "acc:jwins", "%8.1f%%"},
			{Head: "Δacc", Text: "%+6.1f%%"},
			{"loss_choco", "%.4f", "loss:choco", "%10.3f"},
			{"loss_jwins", "%.4f", "loss:jwins", "%10.3f"},
			{"bytes_node_choco", "%d", "B:choco", "| %10s"},
			{"bytes_node_jwins", "%d", "B:jwins", "%10s"},
			{Head: "sim:choco", Text: "%8.1fs"},
			{Head: "sim:jwins", Text: "%8.1fs"},
			{"target_acc", "%.2f", "target", "| %6.1f%%"},
			{"rounds_to_target_jwins", "%d", "to:r", "%5d"},
			{"bytes_to_target_jwins", "%d", "to:B:jwins", "%10s"},
			{Head: "to:sim", Text: "%6.1fs"},
			{"bytes_to_target_full", "%d", "to:B:full", "%10s"},
		},
		Notes: []string{"to:* run JWINS and full sharing to CHOCO's final accuracy within 3x the rounds (to:r -1: not reached); B is bytes per node"},
	}
	n := int64(w.Nodes)
	for _, c := range []struct{ budget, gamma float64 }{{0.20, 0.6}, {0.10, 0.1}} {
		alphas, err := core.BudgetAlphas(c.budget)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultJWINSConfig()
		cfg.Alphas = alphas
		jwinsArm := arm{"jwins", func(s *RunSpec) { s.Algo = AlgoSpec{Kind: AlgoJWINS, JWINS: &cfg} }}
		chocoArm := arm{"choco", func(s *RunSpec) {
			s.Algo = AlgoSpec{Kind: AlgoChoco, Choco: &core.ChocoConfig{Fraction: c.budget, Gamma: c.gamma}}
		}}
		fixed, err := sweep(RunSpec{Workload: w, Seed: seed}, []arm{chocoArm, jwinsArm})
		if err != nil {
			return nil, fmt.Errorf("budget %v: %w", c.budget, err)
		}
		ch, jw := fixed[0], fixed[1]
		toTarget, err := sweep(RunSpec{Workload: w, Rounds: 3 * w.Rounds, TargetAccuracy: ch.FinalAccuracy, Seed: seed},
			append([]arm{jwinsArm}, algoArms(AlgoFull)...))
		if err != nil {
			return nil, fmt.Errorf("budget %v to target: %w", c.budget, err)
		}
		jt, ft := toTarget[0], toTarget[1]
		t.Rows = append(t.Rows, []any{c.budget, c.budget * 100, c.gamma, w.Rounds,
			acc(ch), acc(jw), acc(jw) - acc(ch), ch.FinalLoss, jw.FinalLoss,
			byteCount(ch.TotalBytes / n), byteCount(jw.TotalBytes / n), ch.SimTime, jw.SimTime,
			acc(ch), jt.RoundsToTarget, byteCount(jt.BytesToTarget / n), jt.TimeToTarget, byteCount(ft.BytesToTarget / n)})
	}
	return t, nil
}

// fig7 reproduces Figure 7 on the CIFAR-10-like workload: dynamic
// topologies help full sharing and JWINS, while CHOCO's error-feedback state
// breaks when neighbors change every round. The paper omits CHOCO from the
// chart; it runs here to document its accuracy.
func fig7(scale Scale, seed uint64, _ Opts) (*Table, error) {
	w, err := NewWorkload("cifar10", scale, 0, seed)
	if err != nil {
		return nil, err
	}
	arms := []arm{
		{"full-static", func(s *RunSpec) { s.Algo.Kind = AlgoFull }},
		{"full-dynamic", func(s *RunSpec) { s.Algo.Kind, s.Dynamic = AlgoFull, true }},
		{"jwins-dynamic", func(s *RunSpec) { s.Algo.Kind, s.Dynamic = AlgoJWINS, true }},
		{"choco-dynamic", func(s *RunSpec) { s.Algo.Kind, s.Dynamic = AlgoChoco, true }},
	}
	rs, err := sweep(RunSpec{Workload: w, Seed: seed}, arms)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 7: dynamic topology study (%d rounds, CIFAR-10-like)", w.Rounds),
		Columns: []Column{
			{"arm", "%s", "arm", "  %-14s"},
			{"final_acc", "%.2f", "accuracy", "%8.1f%%"},
		},
		Notes:  []string{"paper: CHOCO does not learn on dynamic topologies"},
		Curves: []Curves{{Series: curvesOf(arms, rs)}},
	}
	for i, a := range arms {
		t.Rows = append(t.Rows, []any{a.label, acc(rs[i])})
	}
	return t, nil
}

// fig8 reproduces Figure 8 on the CIFAR-10-like workload: the final test
// loss and accuracy of full JWINS and of three ablations, each without one
// component (the wavelet, accumulation, the randomized cut-off), with each
// arm's bytes sent and mean sharing fraction α, so that the arms compare at
// a stated cost; the no-cut-off arm runs last, at the JWINS arm's realised
// mean α. The paper claims every ablation ends at a higher test loss than
// full JWINS; the claims experiment reads it over seeds.
func fig8(scale Scale, seed uint64, _ Opts) (*Table, error) {
	w, err := NewWorkload("cifar10", scale, 0, seed)
	if err != nil {
		return nil, err
	}
	meanAlpha := func(r *simulation.Result) float64 {
		var alpha float64
		for _, rm := range r.Rounds {
			alpha += rm.MeanAlpha
		}
		return alpha / float64(len(r.Rounds))
	}
	base := RunSpec{Workload: w, Seed: seed}
	arms := algoArms(AlgoJWINSNoWavelet, AlgoJWINSNoAccum, AlgoJWINS)
	rs, err := sweep(base, arms)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultJWINSConfig()
	cfg.Alphas = core.UniformAlphas(meanAlpha(rs[2]))
	noCutoff := arm{string(AlgoJWINSNoCutoff), func(s *RunSpec) { s.Algo = AlgoSpec{Kind: AlgoJWINSNoCutoff, JWINS: &cfg} }}
	nc, err := sweep(base, []arm{noCutoff})
	if err != nil {
		return nil, err
	}
	arms, rs = slices.Insert(arms, 2, noCutoff), slices.Insert(rs, 2, nc[0])
	t := &Table{
		Title: fmt.Sprintf("Figure 8: ablation study (%d rounds, CIFAR-10-like)", w.Rounds),
		Columns: []Column{
			{"variant", "%s", "variant", "%-26s"},
			{"test_loss", "%.4f", "test loss", "%10.3f"},
			{"accuracy", "%.2f", "accuracy", "%9.1f%%"},
			{"bytes", "%d", "sent", "| %11s"},
			{"mean_alpha", "%.4f", "mean α", "%7.3f"},
		},
		Curves: []Curves{{Series: curvesOf(arms, rs)}},
	}
	for i, a := range arms {
		t.Rows = append(t.Rows, []any{a.label, rs[i].FinalLoss, acc(rs[i]),
			byteCount(rs[i].TotalBytes), meanAlpha(rs[i])})
	}
	return t, nil
}

// fig9 reproduces Figure 9 with a short JWINS run on the CIFAR-10-like task.
// Raw32 values make the model payload exactly 4 bytes per shared coefficient,
// which is also what uncompressed metadata would cost (a 32-bit index each);
// the Elias-gamma encoding shrinks it by about an order of magnitude.
func fig9(scale Scale, seed uint64, _ Opts) (*Table, error) {
	w, err := NewWorkload("cifar10", scale, 0, seed)
	if err != nil {
		return nil, err
	}
	rounds := max(w.Rounds/2, 5)
	r, err := Run(RunSpec{
		Workload: w,
		Algo:     AlgoSpec{Kind: AlgoJWINS, Codec: codec.Raw32{}},
		Rounds:   rounds,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	model, raw, gamma := r.ModelBytes, r.ModelBytes, r.MetaBytes
	compression := 0.0
	if gamma > 0 {
		compression = float64(raw) / float64(gamma)
	}
	wasted := float64(raw) / float64(raw+model)
	return &Table{
		Title: fmt.Sprintf("Figure 9: metadata size with and without Elias gamma (%d rounds)", rounds),
		Columns: []Column{
			{Name: "rounds", CSV: "%d"},
			{"model_bytes", "%d", "model", "  %10s"},
			{"meta_raw", "%d", "meta:raw", "%10s"},
			{"meta_gamma", "%d", "meta:gamma", "%10s"},
			{"compression", "%.2f", "compression", "%10.1fx"},
			{Name: "wasted_fraction", CSV: "%.4f"},
			{Head: "wasted", Text: "%7.0f%%"},
		},
		Rows:  [][]any{{rounds, byteCount(model), byteCount(raw), byteCount(gamma), compression, wasted, wasted * 100}},
		Notes: []string{"wasted: uncompressed metadata's share of the traffic"},
	}, nil
}

// fig10Sizes returns the node counts and degrees per scale, mirroring the
// paper's 96/192/288/384 at degree 4/5/5/6.
func fig10Sizes(scale Scale) ([]int, []int) {
	switch scale {
	case Micro:
		return []int{8, 12}, []int{4, 4}
	case Small:
		return []int{16, 32, 48, 64}, []int{4, 5, 5, 6}
	default:
		return []int{96, 192, 288, 384}, []int{4, 5, 5, 6}
	}
}

// fig10 reproduces the scalability study on the CIFAR-10-like task with the
// less-strict 4-shards-per-node partitioning: at every size, JWINS should
// beat random sampling on accuracy and reach its final accuracy sooner, with
// gross savings growing with the node count.
func fig10(scale Scale, seed uint64, _ Opts) (*Table, error) {
	t := &Table{
		Title: "Figure 10: scalability (CIFAR-10-like, 4 shards/node)",
		Columns: []Column{
			{"nodes", "%d", "nodes", "%-6d"},
			{"degree", "%d", "degree", "%-6d"},
			{"rounds", "%d", "rounds", "%-7d"},
			{"acc_random", "%.2f", "acc:rand", "| %8.1f%%"},
			{"acc_jwins", "%.2f", "acc:jwins", "%8.1f%%"},
			{"gain", "%.2f", "gain", "%+6.1f%%"},
			{"rounds_to_target_jwins", "%d", "r:jwins", "| %8d"},
			{"rounds_saved", "%d", "saved", "%8d"},
			{"bytes_random", "%d", "B:rand", "| %12s"},
			{"bytes_jwins", "%d", "B:jwins", "%12s"},
		},
	}
	sizes, degrees := fig10Sizes(scale)
	for i, n := range sizes {
		w, err := NewCIFAR10Shards(scale, n, 4, seed)
		if err != nil {
			return nil, err
		}
		w.Degree = degrees[i]
		fixed, err := sweep(RunSpec{Workload: w, Seed: seed}, algoArms(AlgoRandom, AlgoJWINS))
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
		random, jwins := fixed[0], fixed[1]
		toTarget, err := Run(RunSpec{Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS},
			Rounds: 2 * w.Rounds, TargetAccuracy: random.FinalAccuracy, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("n=%d to target: %w", n, err)
		}
		saved := 0
		if toTarget.RoundsToTarget > 0 {
			saved = w.Rounds - toTarget.RoundsToTarget
		}
		t.Rows = append(t.Rows, []any{n, w.Degree, w.Rounds, acc(random), acc(jwins), acc(jwins) - acc(random),
			toTarget.RoundsToTarget, saved, byteCount(random.TotalBytes), byteCount(toTarget.BytesToTarget)})
	}
	return t, nil
}
