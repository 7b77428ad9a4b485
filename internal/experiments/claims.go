package experiments

import (
	"fmt"
	"math"
	"slices"
)

// claimRow is one of the paper's claims, read off the table one experiment
// returns: at each seed, d = a − b meets the row when d op delta holds, op
// being "≥" or ">". A NaN d misses, and so does a run-to-target round count
// of −1 (not reached) when toTarget is set. accs are the accuracy cells of
// the arms the claim expects to learn: one within 2 points of dataset's
// majority-class rate (table1's chance column), or below it, leaves the
// comparison without meaning.
type claimRow struct {
	claim, exp, dataset string
	a, b                cellRef // a zero b reads 0
	op                  string
	delta               float64
	toTarget            bool
	accs                []cellRef
}

// cellRef names the cell in column col of the row whose first cell prints
// as row.
type cellRef struct{ row, col string }

// claimRows states the paper's claims (Table I and Figs. 5–8 and 10) at a
// scale, then its remark that JWINS is flexible to faults and to nodes
// leaving and joining, as ext-faults and ext-asyncchurn measure it. CHOCO's
// accuracy is not held against chance: a CHOCO arm that does not learn is
// what fig6, fig7 and the extensions expect.
func claimRows(scale Scale) []claimRow {
	var rows []claimRow
	for _, ds := range WorkloadNames {
		c := func(col string) cellRef { return cellRef{ds, col} }
		rows = append(rows,
			claimRow{claim: "sends up to 64% fewer bytes", exp: "table1", dataset: ds, a: c("savings"), op: "≥", delta: 0.35, accs: []cellRef{c("acc_full"), c("acc_jwins")}},
			claimRow{claim: "beats random sampling", exp: "table1", dataset: ds, a: c("acc_jwins"), b: c("acc_random"), op: "≥", accs: []cellRef{c("acc_jwins"), c("acc_random")}},
			claimRow{claim: "similar accuracy to full sharing", exp: "table1", dataset: ds, a: c("acc_jwins"), b: c("acc_full"), op: "≥", delta: -2, accs: []cellRef{c("acc_jwins"), c("acc_full")}},
			claimRow{claim: "reaches random's accuracy as soon", exp: "fig5", dataset: ds, a: c("rounds_random"), b: c("rounds_jwins"), op: "≥", toTarget: true, accs: []cellRef{c("target_acc")}})
	}
	rows = append(rows,
		claimRow{claim: "beats CHOCO at a 20% budget", exp: "fig6", dataset: "cifar10", a: cellRef{"0.2", "acc_jwins"}, b: cellRef{"0.2", "acc_choco"}, op: "≥", accs: []cellRef{{"0.2", "acc_jwins"}}},
		claimRow{claim: "beats CHOCO at a 10% budget", exp: "fig6", dataset: "cifar10", a: cellRef{"0.1", "acc_jwins"}, b: cellRef{"0.1", "acc_choco"}, op: "≥", delta: -1, accs: []cellRef{{"0.1", "acc_jwins"}}},
		claimRow{claim: "CHOCO fails on dynamic topologies", exp: "fig7", dataset: "cifar10", a: cellRef{"jwins-dynamic", "final_acc"}, b: cellRef{"choco-dynamic", "final_acc"}, op: ">", accs: []cellRef{{"jwins-dynamic", "final_acc"}}},
		claimRow{claim: "CHOCO fails on dynamic topologies", exp: "fig7", dataset: "cifar10", a: cellRef{"full-dynamic", "final_acc"}, b: cellRef{"choco-dynamic", "final_acc"}, op: ">", accs: []cellRef{{"full-dynamic", "final_acc"}}})
	for _, ablation := range []Algo{AlgoJWINSNoWavelet, AlgoJWINSNoAccum, AlgoJWINSNoCutoff} {
		rows = append(rows, claimRow{claim: "each component lowers test loss", exp: "fig8", dataset: "cifar10",
			a: cellRef{string(ablation), "test_loss"}, b: cellRef{string(AlgoJWINS), "test_loss"}, op: ">",
			accs: []cellRef{{string(ablation), "accuracy"}, {string(AlgoJWINS), "accuracy"}}})
	}
	sizes, _ := fig10Sizes(scale)
	for _, n := range sizes {
		row := fmt.Sprint(n)
		rows = append(rows, claimRow{claim: "beats random sampling at any size", exp: "fig10", dataset: "cifar10",
			a: cellRef{row, "gain"}, op: "≥", delta: -2, accs: []cellRef{{row, "acc_jwins"}, {row, "acc_random"}}})
	}

	// Faults and churn: 20% message drops, and stragglers with 20% of the
	// nodes leaving and rejoining under the async engine.
	churn := fmt.Sprint(asyncNodes[scale])
	rows = append(rows,
		claimRow{claim: "loses less accuracy than CHOCO under message drops", exp: "ext-faults", dataset: "cifar10",
			a: cellRef{"choco", "lost"}, b: cellRef{"jwins", "lost"}, op: "≥", accs: []cellRef{{"jwins", "acc_clean"}, {"jwins", "acc_drops"}}},
		claimRow{claim: "beats CHOCO under stragglers and churn", exp: "ext-asyncchurn", dataset: "cifar10",
			a: cellRef{churn, "acc_jwins_async"}, b: cellRef{churn, "acc_choco_async"}, op: ">", accs: []cellRef{{churn, "acc_jwins_async"}}},
		claimRow{claim: "similar accuracy under stragglers and churn", exp: "ext-asyncchurn", dataset: "cifar10",
			a: cellRef{churn, "acc_jwins_async"}, b: cellRef{churn, "acc_jwins_sync"}, op: "≥", delta: -2, accs: []cellRef{{churn, "acc_jwins_async"}, {churn, "acc_jwins_sync"}}})
	return rows
}

// claimExps are the experiments whose tables the claim rows read.
var claimExps = map[string]func(Scale, uint64, Opts) (*Table, error){
	"table1": table1, "fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8, "fig10": fig10,
	"ext-faults": extFaults, "ext-asyncchurn": extAsyncChurn,
}

// claims scores every claim row over the tables claimExps return at seeds
// seed, seed+1, …: 2 seeds at Micro, 5 above.
func claims(scale Scale, seed uint64, _ Opts) (*Table, error) {
	runs := make([]map[string]*Table, 5)
	if scale == Micro {
		runs = runs[:2]
	}
	for i := range runs {
		runs[i] = map[string]*Table{}
		for name, run := range claimExps {
			var err error
			if runs[i][name], err = run(scale, seed+uint64(i), Opts{}); err != nil {
				return nil, fmt.Errorf("%s at seed %d: %w", name, seed+uint64(i), err)
			}
		}
	}
	return scoreClaims(claimRows(scale), runs, seed), nil
}

// scoreClaims prints one line per claim row from the tables of seeds seed,
// seed+1, … (runs[i] holds seed+i's): how many seeds met the test, the
// median, min and max of d over the seeds where it is a number, and the
// verdict.
func scoreClaims(rows []claimRow, runs []map[string]*Table, seed uint64) *Table {
	t := &Table{
		Title: fmt.Sprintf("Paper claims: d = A − B at seeds %d–%d", seed, seed+uint64(len(runs))-1),
		Columns: []Column{
			{"claim", "%s", "claim", "%-50s"},
			{"experiment", "%s", "exp", "%-14s"},
			{"row", "%s", "row", "%-30s"},
			{"d", "%s", "A − B", "%-33s"},
			{"test", "%s", "test", "%-7s"},
			{"seeds", "%d", "seeds", "| %5d"},
			{"met", "%d", "met", "%3d"},
			{"median", "%.4f", "median", "| %+8.3f"},
			{"min", "%.4f", "min", "%+8.3f"},
			{"max", "%.4f", "max", "%+8.3f"},
			{"verdict", "%s", "verdict", "| %s"},
		},
		Notes: []string{
			"met: seeds where d passes the test; a NaN d or a run that never reached its target misses",
			"holds: every seed met; fails: none did; inconclusive: mixed, or an arm the claim expects to learn within 2 points of chance",
		},
	}
	for _, c := range rows {
		var ds []float64
		met, chance := 0, false
		for _, tabs := range runs {
			d, atChance := c.read(tabs)
			if d > c.delta || c.op == "≥" && d == c.delta {
				met++
			}
			if !math.IsNaN(d) {
				ds = append(ds, d)
			}
			chance = chance || atChance
		}
		verdict := "fails"
		if chance || met > 0 && met < len(runs) {
			verdict = "inconclusive"
		} else if met == len(runs) {
			verdict = "holds"
		}
		med, lo, hi := math.NaN(), math.NaN(), math.NaN()
		if len(ds) > 0 {
			slices.Sort(ds)
			med, lo, hi = (ds[(len(ds)-1)/2]+ds[len(ds)/2])/2, ds[0], ds[len(ds)-1]
		}
		row, d := c.a.row, c.a.col
		if c.b.row != c.a.row && c.b.row != "" {
			row += " − " + c.b.row
		} else if c.b.col != "" {
			d += " − " + c.b.col
		}
		t.Rows = append(t.Rows, []any{c.claim, c.exp, row, d, fmt.Sprintf("%s %g", c.op, c.delta), len(runs), met, med, lo, hi, verdict})
	}
	return t
}

// read is c's d at one seed's tables, and whether an arm the claim expects
// to learn came within 2 points of chance or below it.
func (c claimRow) read(tabs map[string]*Table) (d float64, atChance bool) {
	t, chance := tabs[c.exp], tabs["table1"].value(cellRef{c.dataset, "chance"})
	for _, r := range c.accs {
		// A NaN accuracy shows no learning either.
		atChance = atChance || !(t.value(r)-chance > 2)
	}
	a, b := t.value(c.a), 0.0
	if c.b != (cellRef{}) {
		b = t.value(c.b)
	}
	if c.toTarget && (a == -1 || b == -1) {
		return math.NaN(), atChance
	}
	return a - b, atChance
}

// value is the number in the cell r names. claimRows names only cells its
// experiments print, so a missing one is a bug.
func (t *Table) value(r cellRef) float64 {
	i := slices.IndexFunc(t.Rows, func(row []any) bool { return fmt.Sprint(row[0]) == r.row })
	if i < 0 || t.column(r.col) < 0 {
		panic(fmt.Sprintf("claims: %q has no cell %+v", t.Title, r))
	}
	return t.num(i, r.col)
}
