package experiments

import (
	"math"
	"testing"
)

func TestFig8Micro(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r, err := fig8(Micro, 42, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		if loss := num(t, r, i, "test_loss"); math.IsNaN(loss) || loss <= 0 {
			t.Fatalf("variant %s has no loss", cell(t, r, i, "variant"))
		}
	}
	_ = r.String()
}

func TestRunSpecAsyncSmoke(t *testing.T) {
	w, err := NewWorkload("cifar10", Micro, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunSpec{
		Workload: w, Algo: AlgoSpec{Kind: AlgoJWINS}, Rounds: 4, Seed: 11,
		Async: true, ChurnFraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 || res.TotalBytes <= 0 {
		t.Fatalf("unexpected async result: %+v", res)
	}
}
