package experiments

import (
	"errors"
	"strings"
	"testing"
)

// TestRunSpecDynamicAsync: the previously rejected Dynamic+Async combination
// now runs through the epoch-rotated provider, completes its budget, and
// reports mixing instrumentation.
func TestRunSpecDynamicAsync(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunSpec{
		Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: 5, Seed: 11,
		Async: true, Dynamic: true, EpochSec: DefaultEpochSec(w),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 5 || res.TotalBytes <= 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.Epochs < 2 {
		t.Fatalf("topology never rotated: %d epochs", res.Epochs)
	}
	if res.TurnoverMean <= 0 || res.SpectralGapMean <= 0 {
		t.Fatalf("mixing instrumentation missing: turnover %v, gap %v", res.TurnoverMean, res.SpectralGapMean)
	}
}

// TestRunSpecEpochSecRequiresAsync: simulated-time epochs have no meaning
// under the synchronous engine; the combination is a typed rejection.
func TestRunSpecEpochSecRequiresAsync(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(RunSpec{Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: 2, Seed: 3, EpochSec: 0.5})
	if !errors.Is(err, ErrUnsupportedSpec) {
		t.Fatalf("sync EpochSec: got %v, want ErrUnsupportedSpec", err)
	}
}

// TestExtDynTopoMicro: the sweep smoke test — every (size, arm) row present,
// rotated arms rotate and report mixing, the static baseline does not, and
// the CSV carries the new columns.
func TestExtDynTopoMicro(t *testing.T) {
	r, err := extDynTopo(Micro, 5, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Micro: 16 and 32 nodes, four arms each, 6 iterations.
	if len(r.Rows) != 4*2 {
		t.Fatalf("expected %d rows, got %d", 4*2, len(r.Rows))
	}
	for i := range r.Rows {
		arm, n := cell(t, r, i, "arm"), num(t, r, i, "nodes")
		if rounds := num(t, r, i, "rounds"); rounds != 6 {
			t.Fatalf("arm %s n=%.0f completed %.0f rows", arm, n, rounds)
		}
		if gap := num(t, r, i, "spectral_gap_mean"); gap <= 0 || gap > 1 {
			t.Fatalf("arm %s n=%.0f gap %v outside (0,1]", arm, n, gap)
		}
		epochs, turnover := num(t, r, i, "epochs"), num(t, r, i, "turnover_mean")
		if num(t, r, i, "epoch_mult") == 0 {
			if turnover != 0 || epochs != 1 {
				t.Fatalf("static arm rotated: %v", r.Rows[i])
			}
		} else {
			if epochs < 2 || turnover <= 0 {
				t.Fatalf("rotated arm %s n=%.0f did not rotate: %v", arm, n, r.Rows[i])
			}
		}
	}
	csv := r.CSV()
	for _, col := range []string{"spectral_gap_mean", "turnover_mean", "epoch,spectral_gap,turnover"} {
		if !strings.Contains(csv, col) {
			t.Fatalf("CSV lacks %q:\n%s", col, csv[:200])
		}
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}
