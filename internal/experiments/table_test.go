package experiments

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/simulation"
)

func TestCurvesCSV(t *testing.T) {
	curves := map[string][]simulation.RoundMetrics{
		"jwins": {
			{Round: 0, TrainLoss: 1.5, TestLoss: math.NaN(), TestAcc: math.NaN(), CumTotalBytes: 100},
			{Round: 1, TrainLoss: 1.2, TestLoss: 1.1, TestAcc: 0.5, CumTotalBytes: 200},
		},
		"full-sharing": {
			{Round: 0, TrainLoss: 1.4, TestLoss: 1.3, TestAcc: 0.4, CumTotalBytes: 300},
		},
	}
	out := CurvesCSV(curves)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 3 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "algo,round,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	// Algorithms sorted: full-sharing first.
	if !strings.HasPrefix(lines[1], "full-sharing,0,") {
		t.Fatalf("rows not sorted by algo: %s", lines[1])
	}
	// NaN becomes empty field.
	if !strings.Contains(lines[2], ",,") {
		t.Fatalf("NaN not blanked: %s", lines[2])
	}
}

// TestTableCSV: the one CSV writer keeps the CSV columns in declaration
// order and skips text-only ones, blanks NaN cells, and appends the curve
// groups (note and labels as comments) and the next section after a blank
// line each.
func TestTableCSV(t *testing.T) {
	tab := &Table{
		Columns: []Column{
			{"name", "%s", "name", "%-6s"},
			{Head: "pct", Text: "%5.1f%%"},
			{Name: "bytes", CSV: "%d"},
			{"loss", "%.4f", "loss", "%8.3f"},
		},
		Rows: [][]any{
			{"a", 12.5, byteCount(2048), 0.25},
			{"b", 50.0, byteCount(10), math.NaN()},
		},
		CurvesNote: "curves",
		Curves: []Curves{
			{Label: "set=x", Series: map[string][]simulation.RoundMetrics{"jwins": {{Round: 0, TrainLoss: 1}}}},
			{Label: "set=y", Series: map[string][]simulation.RoundMetrics{}},
		},
		Next: &Table{Columns: []Column{{Name: "round", CSV: "%d"}}, Rows: [][]any{{3}}},
	}
	head := "algo,round,train_loss,test_loss,test_acc,cum_bytes,cum_meta_bytes,sim_time,stale_mean,stale_max,stale_p95,epoch,spectral_gap,turnover\n"
	want := "name,bytes,loss\na,2048,0.2500\nb,10,\n" +
		"\n# curves\n# set=x\n" + head + "jwins,0,1.000000,0.000000,0.000000,0,0,0.0000,0.0000,0,0.0000,0,0.0000,0.0000\n" +
		"# set=y\n" + head +
		"\nround\n3\n"
	if got := tab.CSV(); got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
	if got := (&Table{Columns: tab.Columns[:1], Rows: [][]any{{"a"}}}).CSV(); got != "name\na\n" {
		t.Fatalf("CSV without curves: %q", got)
	}
}

// TestTableString: the one text printer pads each header to its cell's width
// (the verb's width plus the literal text after it, behind the text before
// it, aligned as the verb is), prints byte counts in binary units under %s,
// and leaves CSV-only columns out.
func TestTableString(t *testing.T) {
	tab := &Table{
		Title: "title",
		Columns: []Column{
			{"name", "%s", "name", "%-6s"},
			{Head: "pct", Text: "| %5.1f%%"},
			{"bytes", "%d", "sent", "%10s"},
			{Name: "loss", CSV: "%.4f"},
		},
		Rows:  [][]any{{"a", 12.5, byteCount(2048), 0.25}},
		Notes: []string{"note"},
	}
	want := "title\n" +
		"name   |    pct       sent\n" +
		"a      |  12.5%   2.00 KiB\n" +
		"note\n"
	if got := tab.String(); got != want {
		t.Fatalf("String:\n%q\nwant:\n%q", got, want)
	}
}

// TestResultCSVs: each paper experiment's CSV keeps the header plotting
// scripts read and renders its first row in the column formats they parse.
func TestResultCSVs(t *testing.T) {
	const (
		i  = `-?\d+`
		f2 = `-?\d+\.\d{2}`
		f3 = `-?\d+\.\d{3}`
		f4 = `-?\d+\.\d{4}`
		f8 = `-?\d+\.\d{8}`
	)
	row := func(cells ...string) string { return "^" + strings.Join(cells, ",") + "$" }
	opts := Opts{Datasets: []string{"cifar10"}}
	for _, c := range []struct {
		name   string
		run    func(Scale, uint64, Opts) (*Table, error)
		header string
		row    string
	}{
		{"fig2", fig2, "epoch,wavelet_mse,fft_mse,random_mse", row("1", f8, f8, f8)},
		{"fig3", fig3, "node,alpha", row("0", f4)},
		{"table1", table1, "dataset,rounds,chance,acc_full,acc_random,acc_jwins,loss_full,loss_random,loss_jwins,bytes_full,bytes_random,bytes_jwins,meta_jwins,savings",
			row("cifar10", i, f2, f2, f2, f2, f4, f4, f4, i, i, i, i, f4)},
		{"fig5", fig5, "dataset,target_acc,rounds_full,rounds_random,rounds_jwins,bytes_full,bytes_random,bytes_jwins,rounds_saved,byte_ratio",
			row("cifar10", f2, i, i, i, i, i, i, i, f3)},
		{"fig6", fig6, "budget,gamma,rounds,acc_choco,acc_jwins,loss_choco,loss_jwins,bytes_node_choco,bytes_node_jwins,target_acc,rounds_to_target_jwins,bytes_to_target_jwins,bytes_to_target_full",
			row(`0\.20`, `0\.60`, i, f2, f2, f4, f4, i, i, f2, i, i, i)},
		{"fig7", fig7, "arm,final_acc", row("full-static", f2)},
		{"fig8", fig8, "variant,test_loss,accuracy,bytes,mean_alpha", row("jwins-no-wavelet", f4, f2, i, f4)},
		{"fig9", fig9, "rounds,model_bytes,meta_raw,meta_gamma,compression,wasted_fraction", row(i, i, i, i, f2, f4)},
		{"fig10", fig10, "nodes,degree,rounds,acc_random,acc_jwins,gain,rounds_to_target_jwins,rounds_saved,bytes_random,bytes_jwins",
			row("8", "4", i, f2, f2, f2, i, i, i, i)},
	} {
		r, err := c.run(Micro, 5, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lines := strings.SplitN(r.CSV(), "\n", 3)
		if len(lines) < 3 || lines[0] != c.header {
			t.Fatalf("%s CSV header malformed:\n%s", c.name, r.CSV())
		}
		if !regexp.MustCompile(c.row).MatchString(lines[1]) {
			t.Fatalf("%s CSV row malformed: %q does not match %s", c.name, lines[1], c.row)
		}
	}
}

func TestCurvesCSVStalenessColumns(t *testing.T) {
	curves := map[string][]simulation.RoundMetrics{
		"gossip": {{Round: 0, TrainLoss: 1, StaleMean: 0.5, StaleMax: 3, StaleP95: 2}},
	}
	out := CurvesCSV(curves)
	if !strings.Contains(out, "stale_mean,stale_max,stale_p95") {
		t.Fatalf("staleness columns missing from header:\n%s", out)
	}
	if !strings.Contains(out, "0.5000,3,2.0000") {
		t.Fatalf("staleness values not rendered:\n%s", out)
	}
}

// cell is row i's value in the column with this CSV name or, for a
// text-only column, this header.
func cell(t *testing.T, tab *Table, i int, name string) any {
	t.Helper()
	c := tab.column(name)
	if c < 0 {
		t.Fatalf("no column %q", name)
	}
	return tab.Rows[i][c]
}

// num is a numeric cell as a float64.
func num(t *testing.T, tab *Table, i int, name string) float64 {
	t.Helper()
	if _, isString := cell(t, tab, i, name).(string); isString {
		t.Fatalf("column %q is not numeric", name)
	}
	return tab.num(i, name)
}
