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

func TestExtensionsMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	pg, err := extPowerGossip(Micro, 42, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: jwins, powergossip.
	if num(t, pg, 1, "bytes") <= 0 || num(t, pg, 1, "acc") <= 0 {
		t.Fatalf("powergossip produced no results: %v", pg.Rows[1])
	}
	_ = pg.String()

	ad, err := extAdaptive(Micro, 42, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: default, band-adaptive.
	if num(t, ad, 1, "acc") <= 0 {
		t.Fatalf("adaptive produced no results: %v", ad.Rows[1])
	}
	_ = ad.String()

	fa, err := extFaults(Micro, 42, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// The contrast the extension exists to show: CHOCO degrades more under
	// drops than JWINS does. Rows: jwins, choco.
	jwinsDrop := num(t, fa, 0, "acc_clean") - num(t, fa, 0, "acc_drops")
	chocoDrop := num(t, fa, 1, "acc_clean") - num(t, fa, 1, "acc_drops")
	if chocoDrop < jwinsDrop-5 {
		t.Fatalf("expected CHOCO to degrade at least as much as JWINS (choco -%.1f%%, jwins -%.1f%%)",
			chocoDrop, jwinsDrop)
	}
	_ = fa.String()
}

func TestExtAsyncChurnMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r, err := extAsyncChurn(Micro, 42, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// The async+churn JWINS arm must complete its full iteration budget and
	// stay within a few points of the clean synchronous reference, while
	// CHOCO's error-feedback replicas are expected to suffer.
	rounds := int(num(t, r, 0, "rounds"))
	if rows := len(r.Curves[0].Series["jwins-async-churn"]); rows != rounds {
		t.Fatalf("async JWINS completed %d/%d rows", rows, rounds)
	}
	sync, async, choco := num(t, r, 0, "acc_jwins_sync"), num(t, r, 0, "acc_jwins_async"), num(t, r, 0, "acc_choco_async")
	if async < sync-10 {
		t.Fatalf("async+churn JWINS lost too much accuracy: %.1f%% vs sync %.1f%%", async, sync)
	}
	if choco > async+5 {
		t.Fatalf("expected CHOCO (%.1f%%) to degrade at least as much as JWINS (%.1f%%)", choco, async)
	}
	if len(r.Curves[0].Series) != 3 {
		t.Fatalf("expected 3 curves, got %d", len(r.Curves[0].Series))
	}
	if r.CSV() == "" || r.String() == "" {
		t.Fatal("empty renderings")
	}
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
