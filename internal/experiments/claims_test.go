package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
)

// claimCells scores one fig5-like claim row over hand-made seeds: at each,
// A and B are round counts to a target, acc the accuracy of the arm the
// claim expects to learn, and chance its task's rate in a table1-like table.
func claimCells(c claimRow, seeds [][4]float64) *Table {
	c.exp, c.dataset, c.a, c.b, c.accs = "fig5", "x", cellRef{"x", "rounds_random"}, cellRef{"x", "rounds_jwins"}, []cellRef{{"x", "acc"}}
	runs := make([]map[string]*Table, len(seeds))
	for i, s := range seeds {
		runs[i] = map[string]*Table{
			"fig5": {Columns: []Column{{Name: "dataset"}, {Name: "rounds_random"}, {Name: "rounds_jwins"}, {Name: "acc"}},
				Rows: [][]any{{"y", 0, 0, 0.0}, {"x", s[0], s[1], s[2]}}},
			"table1": {Columns: []Column{{Name: "dataset"}, {Name: "chance"}}, Rows: [][]any{{"x", s[3]}}},
		}
	}
	return scoreClaims([]claimRow{c}, runs, 1)
}

// TestClaimVerdict: every seed meeting the test holds, none fails, a mix is
// inconclusive, and so is an arm the claim expects to learn at chance; a NaN
// d and a run that never reached its target miss; ≥ meets at exactly δ and
// > does not.
func TestClaimVerdict(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name     string
		op       string
		delta    float64
		toTarget bool
		seeds    [][4]float64 // A, B, acc, chance
		met      int
		verdict  string
	}{
		{"every seed meets", "≥", 0, true, [][4]float64{{12, 9, 80, 10}, {15, 12, 85, 10}}, 2, "holds"},
		{"no seed meets", "≥", 0, true, [][4]float64{{9, 12, 80, 10}, {9, 15, 85, 10}}, 0, "fails"},
		{"mixed seeds", "≥", 0, true, [][4]float64{{12, 9, 80, 10}, {9, 12, 85, 10}}, 1, "inconclusive"},
		{"an arm within 2 points of chance", "≥", 0, true, [][4]float64{{12, 9, 11.5, 10}, {15, 12, 85, 10}}, 2, "inconclusive"},
		{"an arm below chance", "≥", 0, true, [][4]float64{{12, 9, 3, 10}, {15, 12, 85, 10}}, 2, "inconclusive"},
		{"a NaN accuracy", "≥", 0, true, [][4]float64{{12, 9, nan, 10}, {15, 12, 85, 10}}, 2, "inconclusive"},
		{"a NaN cell misses", "≥", 0, true, [][4]float64{{nan, 9, 80, 10}, {15, 12, 85, 10}}, 1, "inconclusive"},
		{"not reached misses", "≥", 0, true, [][4]float64{{12, -1, 80, 10}, {15, 12, 85, 10}}, 1, "inconclusive"},
		{"not reached on every seed", "≥", 0, true, [][4]float64{{12, -1, 80, 10}, {-1, 12, 85, 10}}, 0, "fails"},
		{"-1 is a number outside run-to-target rows", "≥", 0, false, [][4]float64{{12, -1, 80, 10}, {15, 12, 85, 10}}, 2, "holds"},
		{"≥ at exactly δ meets", "≥", 3, true, [][4]float64{{12, 9, 80, 10}, {15, 12, 85, 10}}, 2, "holds"},
		{"> at exactly δ misses", ">", 3, true, [][4]float64{{12, 9, 80, 10}, {15, 12, 85, 10}}, 0, "fails"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := claimCells(claimRow{op: tc.op, delta: tc.delta, toTarget: tc.toTarget}, tc.seeds)
			if met, v := num(t, tab, 0, "met"), cell(t, tab, 0, "verdict"); met != float64(tc.met) || v != tc.verdict {
				t.Fatalf("met %g, %s; want met %d, %s", met, v, tc.met, tc.verdict)
			}
		})
	}
}

// TestClaimSpread: the median, min and max of d skip the seeds where d is
// NaN, and are NaN when every seed's is.
func TestClaimSpread(t *testing.T) {
	spread := func(seeds ...[4]float64) [3]float64 {
		tab := claimCells(claimRow{op: "≥"}, seeds)
		return [3]float64{num(t, tab, 0, "median"), num(t, tab, 0, "min"), num(t, tab, 0, "max")}
	}
	if got := spread([4]float64{12, 9, 80, 10}, [4]float64{math.NaN(), 9, 80, 10}, [4]float64{20, 9, 80, 10}, [4]float64{15, 9, 80, 10}); got != [3]float64{6, 3, 11} {
		t.Fatalf("median/min/max %v, want [6 3 11]", got)
	}
	if got := spread([4]float64{10, 9, 80, 10}, [4]float64{13, 9, 80, 10}); got[0] != 2.5 {
		t.Fatalf("median of 1 and 4 is %g, want 2.5", got[0])
	}
	if got := spread([4]float64{math.NaN(), 9, 80, 10}); !math.IsNaN(got[0]) || !math.IsNaN(got[1]) || !math.IsNaN(got[2]) {
		t.Fatalf("all-NaN seeds: median/min/max %v, want NaN", got)
	}
}

// microClaimRuns are the tables claimExps return at Micro at seeds 42 and
// 43 (claims(Micro, 42, Opts{}) before scoring), run once for every test
// that reads them.
var microClaimRuns = sync.OnceValues(func() ([]map[string]*Table, error) {
	runs := make([]map[string]*Table, 2)
	for i := range runs {
		runs[i] = map[string]*Table{}
		for name, run := range claimExps {
			var err error
			if runs[i][name], err = run(Micro, 42+uint64(i), Opts{}); err != nil {
				return nil, fmt.Errorf("%s at seed %d: %w", name, 42+i, err)
			}
		}
	}
	return runs, nil
})

// microClaims is microClaimRuns and the claims table scored from them.
func microClaims(t *testing.T) ([]map[string]*Table, *Table) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs eight experiments at two seeds")
	}
	runs, err := microClaimRuns()
	if err != nil {
		t.Fatal(err)
	}
	return runs, scoreClaims(claimRows(Micro), runs, 42)
}

// claimVerdict is the test and verdict of tab's claim line for exp's row
// and A − B.
func claimVerdict(t *testing.T, tab *Table, exp, row, d string) (test, verdict string) {
	t.Helper()
	for i := range tab.Rows {
		if cell(t, tab, i, "experiment") == exp && cell(t, tab, i, "row") == row && cell(t, tab, i, "d") == d {
			return cell(t, tab, i, "test").(string), cell(t, tab, i, "verdict").(string)
		}
	}
	t.Fatalf("no claim %s %s %s", exp, row, d)
	return "", ""
}

// holdsAtMicro fails t unless each claim line {experiment, row, A − B,
// test} of the seed-42/43 table is there with that test and holds.
func holdsAtMicro(t *testing.T, tab *Table, lines ...[4]string) {
	t.Helper()
	for _, l := range lines {
		if test, v := claimVerdict(t, tab, l[0], l[1], l[2]); test != l[3] || v != "holds" {
			t.Errorf("%s %s %s %s: %s, want %s holds", l[0], l[1], l[2], test, v, l[3])
		}
	}
}

// TestTable1MicroSingleDataset: on cifar10 JWINS saves at least 35% of the
// bytes and matches random sampling's accuracy at seeds 42 and 43, and
// every task has JWINS learning curves.
func TestTable1MicroSingleDataset(t *testing.T) {
	runs, tab := microClaims(t)
	holdsAtMicro(t, tab,
		[4]string{"table1", "cifar10", "savings", "≥ 0.35"},
		[4]string{"table1", "cifar10", "acc_jwins − acc_random", "≥ 0"})
	for _, c := range runs[0]["table1"].Curves {
		if len(c.Series["jwins"]) == 0 {
			t.Fatalf("%s: missing learning curves", c.Label)
		}
	}
}

// TestFig5Micro: on cifar10 JWINS reaches random sampling's final accuracy
// in no more rounds than random sampling at seeds 42 and 43; not reaching
// it misses.
func TestFig5Micro(t *testing.T) {
	_, tab := microClaims(t)
	holdsAtMicro(t, tab, [4]string{"fig5", "cifar10", "rounds_random − rounds_jwins", "≥ 0"})
}

// TestFig6Micro: at the tighter 10% budget JWINS does not lose to CHOCO by
// more than a point at seeds 42 and 43 (the paper's gap grows as the budget
// shrinks).
func TestFig6Micro(t *testing.T) {
	runs, tab := microClaims(t)
	if n := len(runs[0]["fig6"].Rows); n != 2 {
		t.Fatalf("want 2 budget rows, got %d", n)
	}
	holdsAtMicro(t, tab, [4]string{"fig6", "0.1", "acc_jwins − acc_choco", "≥ -1"})
}

// TestFig7Micro: on dynamic topologies CHOCO ends below both JWINS and full
// sharing at seeds 42 and 43.
func TestFig7Micro(t *testing.T) {
	_, tab := microClaims(t)
	holdsAtMicro(t, tab,
		[4]string{"fig7", "jwins-dynamic − choco-dynamic", "final_acc", "> 0"},
		[4]string{"fig7", "full-dynamic − choco-dynamic", "final_acc", "> 0"})
}

// TestFig10Micro: at every size JWINS loses at most 2 points to random
// sampling at seeds 42 and 43.
func TestFig10Micro(t *testing.T) {
	runs, tab := microClaims(t)
	sizes := runs[0]["fig10"].Rows
	if len(sizes) < 2 {
		t.Fatalf("want >= 2 sizes, got %d", len(sizes))
	}
	for _, r := range sizes {
		holdsAtMicro(t, tab, [4]string{"fig10", fmt.Sprint(r[0]), "gain", "≥ -2"})
	}
}

// TestExtFaultsMicro: under 20% message drops CHOCO loses at least as many
// points as JWINS at seeds 42 and 43.
func TestExtFaultsMicro(t *testing.T) {
	_, tab := microClaims(t)
	holdsAtMicro(t, tab, [4]string{"ext-faults", "choco − jwins", "lost", "≥ 0"})
}

// TestExtAsyncChurnMicro: under stragglers and churn the async JWINS arm
// completes its iteration budget, stays within 10 points of the clean
// synchronous run and beats CHOCO at seeds 42 and 43.
func TestExtAsyncChurnMicro(t *testing.T) {
	runs, tab := microClaims(t)
	for i, tabs := range runs {
		r := tabs["ext-asyncchurn"]
		rounds := int(num(t, r, 0, "rounds"))
		if rows := len(r.Curves[0].Series["jwins-async-churn"]); rows != rounds {
			t.Errorf("seed %d: async JWINS completed %d/%d rows", 42+i, rows, rounds)
		}
		if n := len(r.Curves[0].Series); n != 3 {
			t.Errorf("seed %d: want 3 curves, got %d", 42+i, n)
		}
		if sync, async := num(t, r, 0, "acc_jwins_sync"), num(t, r, 0, "acc_jwins_async"); async < sync-10 {
			t.Errorf("seed %d: async+churn JWINS lost too much accuracy: %.1f%% vs sync %.1f%%", 42+i, async, sync)
		}
		if r.CSV() == "" || r.String() == "" {
			t.Errorf("seed %d: empty renderings", 42+i)
		}
	}
	holdsAtMicro(t, tab, [4]string{"ext-asyncchurn", fmt.Sprint(asyncNodes[Micro]), "acc_jwins_async − acc_choco_async", "> 0"})
}

// TestClaimsMicro prints the claims table at seeds 42 and 43 (the tests
// above hold the claims single-seed threshold tests used to assert at seed
// 42 to the same test at both seeds). Shakespeare's arms all score its
// majority-class rate, so the chance rule must leave its rows inconclusive;
// and JWINS missing random sampling's target at one seed must cost fig5's
// row its verdict.
func TestClaimsMicro(t *testing.T) {
	runs, tab := microClaims(t)
	t.Log("\n" + tab.String())
	for i := range tab.Rows {
		if cell(t, tab, i, "row") == "shakespeare" && cell(t, tab, i, "verdict") != "inconclusive" {
			t.Errorf("shakespeare %s: %s at chance, want inconclusive", cell(t, tab, i, "d"), cell(t, tab, i, "verdict"))
		}
	}

	fig5 := *runs[1]["fig5"]
	fig5.Rows = slices.Clone(fig5.Rows)
	r := slices.IndexFunc(fig5.Rows, func(row []any) bool { return row[0] == "cifar10" })
	fig5.Rows[r] = slices.Clone(fig5.Rows[r])
	fig5.Rows[r][fig5.column("rounds_jwins")] = -1
	missed := maps.Clone(runs[1])
	missed["fig5"] = &fig5
	tab = scoreClaims(claimRows(Micro), []map[string]*Table{runs[0], missed}, 42)
	if _, v := claimVerdict(t, tab, "fig5", "cifar10", "rounds_random − rounds_jwins"); v != "inconclusive" {
		t.Errorf("fig5 cifar10 with JWINS not reaching the target at seed 43: %s, want inconclusive", v)
	}
}
