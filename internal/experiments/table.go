package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/simulation"
)

// Table is one experiment's result. String prints it as an aligned text
// table and CSV writes it for external plotting; each Column says how it
// renders in either form, or that it appears in only one of them.
type Table struct {
	// Title is printed above the text table (one or more lines).
	Title   string
	Columns []Column
	// Rows hold one value per column.
	Rows [][]any
	// Notes are printed below the text table, one per line.
	Notes []string
	// Curves are learning curves appended to the CSV in long format
	// (CurvesCSV) after a blank line: CurvesNote and each group's Label, when
	// set, as "# " comment lines ahead of them.
	Curves     []Curves
	CurvesNote string
	// Next is a further CSV section, written after a blank line.
	Next *Table
}

// Column is one column of a Table.
type Column struct {
	// Name is the CSV header and CSV the cell's format verb; a column with
	// no Name stays out of the CSV.
	Name, CSV string
	// Head is the text header and Text the cell's format, with its width and
	// any literal text around the verb ("| %7.1f%%"); a column with no Head
	// stays out of the text table. The header is padded to the cell's width.
	Head, Text string
}

// Curves is one group of learning curves keyed by arm.
type Curves struct {
	Label  string
	Series map[string][]simulation.RoundMetrics
}

// String renders the title, the text columns' header and rows, and the notes.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	var text []int
	for i, c := range t.Columns {
		if c.Head != "" {
			text = append(text, i)
		}
	}
	if len(text) > 0 {
		cells := make([]string, len(text))
		for k, i := range text {
			cells[k] = textHead(t.Columns[i])
		}
		b.WriteString(strings.Join(cells, " ") + "\n")
		for _, row := range t.Rows {
			for k, i := range text {
				cells[k] = fmt.Sprintf(t.Columns[i].Text, row[i])
			}
			b.WriteString(strings.Join(cells, " ") + "\n")
		}
	}
	for _, n := range t.Notes {
		b.WriteString(n + "\n")
	}
	return b.String()
}

// column is the index of the column with this CSV name or, for a text-only
// column, this header; -1 when there is none.
func (t *Table) column(name string) int {
	return slices.IndexFunc(t.Columns, func(c Column) bool { return c.Name == name || c.Name == "" && c.Head == name })
}

// num is row i's cell in the named column as a float64: NaN when there is
// no such column or the cell is not a number.
func (t *Table) num(i int, name string) float64 {
	if c := t.column(name); c >= 0 {
		switch v := t.Rows[i][c].(type) {
		case float64:
			return v
		case int:
			return float64(v)
		case int64:
			return float64(v)
		case byteCount:
			return float64(v)
		}
	}
	return math.NaN()
}

// textHead pads c.Head to the width of c.Text's verb plus the literal text
// after it, aligned as the verb is, behind the literal text before it.
func textHead(c Column) string {
	at := strings.IndexByte(c.Text, '%')
	spec := c.Text[at+1:]
	left := strings.HasPrefix(spec, "-")
	spec = strings.TrimLeft(spec, "-+ #0")
	digits := strings.IndexFunc(spec, func(r rune) bool { return !unicode.IsDigit(r) })
	width, _ := strconv.Atoi(spec[:digits])
	verb := strings.IndexFunc(spec, unicode.IsLetter)
	width += utf8.RuneCountInString(strings.ReplaceAll(spec[verb+1:], "%%", "%"))
	if left {
		width = -width
	}
	return fmt.Sprintf("%s%*s", c.Text[:at], width, c.Head)
}

// CSV renders the CSV columns' header and rows (a NaN cell is an empty
// field), then the curves and the next section.
func (t *Table) CSV() string {
	var b strings.Builder
	var names []string
	for _, c := range t.Columns {
		if c.Name != "" {
			names = append(names, c.Name)
		}
	}
	b.WriteString(strings.Join(names, ",") + "\n")
	for _, row := range t.Rows {
		cells := make([]string, 0, len(names))
		for i, c := range t.Columns {
			if c.Name == "" {
				continue
			}
			if v, ok := row[i].(float64); ok && math.IsNaN(v) {
				cells = append(cells, "")
			} else {
				cells = append(cells, fmt.Sprintf(c.CSV, row[i]))
			}
		}
		b.WriteString(strings.Join(cells, ",") + "\n")
	}
	if len(t.Curves) > 0 {
		b.WriteString("\n")
		if t.CurvesNote != "" {
			b.WriteString("# " + t.CurvesNote + "\n")
		}
		for _, c := range t.Curves {
			if c.Label != "" {
				b.WriteString("# " + c.Label + "\n")
			}
			b.WriteString(CurvesCSV(c.Series))
		}
	}
	if t.Next != nil {
		b.WriteString("\n" + t.Next.CSV())
	}
	return b.String()
}

// byteCount is a byte total in a Table cell: %d prints the count and %s its
// FormatBytes form.
type byteCount int64

// Format implements fmt.Formatter.
func (n byteCount) Format(f fmt.State, verb rune) {
	if verb == 's' {
		fmt.Fprintf(f, fmt.FormatString(f, verb), FormatBytes(int64(n)))
		return
	}
	fmt.Fprintf(f, fmt.FormatString(f, verb), int64(n))
}

// FormatBytes renders a byte count with binary units.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// CurvesCSV renders per-algorithm learning curves as long-format CSV:
// algo,round,train_loss,test_loss,test_acc,cum_bytes,cum_meta_bytes,
// sim_time,stale_mean,stale_max,stale_p95,epoch,spectral_gap,turnover. The
// staleness columns carry the per-iteration payload lag distribution (0 for
// synchronous runs and the async barrier in the clean limit); the last three
// carry the topology epoch active at row emission and its mixing quality
// (spectral gap of the live mixing matrix, neighbor turnover vs the previous
// epoch — both 0 for synchronous runs).
func CurvesCSV(curves map[string][]simulation.RoundMetrics) string {
	var b strings.Builder
	b.WriteString("algo,round,train_loss,test_loss,test_acc,cum_bytes,cum_meta_bytes,sim_time,stale_mean,stale_max,stale_p95,epoch,spectral_gap,turnover\n")
	algos := make([]string, 0, len(curves))
	for a := range curves {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	for _, a := range algos {
		for _, rm := range curves[a] {
			fmt.Fprintf(&b, "%s,%d,%s,%s,%s,%d,%d,%.4f,%.4f,%.0f,%.4f,%d,%.4f,%.4f\n",
				a, rm.Round, csvFloat(rm.TrainLoss), csvFloat(rm.TestLoss), csvFloat(rm.TestAcc),
				rm.CumTotalBytes, rm.CumMetaBytes, rm.SimTime,
				rm.StaleMean, rm.StaleMax, rm.StaleP95,
				rm.Epoch, rm.SpectralGap, rm.NeighborTurnover)
		}
	}
	return b.String()
}

func csvFloat(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return fmt.Sprintf("%.6f", v)
}
