package simulation

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// TestMixingEverySamples: with MixingEvery = 2, only epochs at even indices
// carry a finite spectral gap (others are NaN in rows), the Result mean
// covers sampled epochs only, and the schedule itself — which must not
// depend on instrumentation — is unchanged from the every-epoch run.
func TestMixingEverySamples(t *testing.T) {
	const (
		rounds   = 12
		epochSec = 0.05
	)
	run := func(every int) (*Result, []trace.Event) {
		rec := trace.NewRecorder(trace.Header{})
		eng := dynEngineFor(t, algoJWINS, rounds, epochSec, func(cfg *AsyncConfig) {
			cfg.MixingEvery = every
			cfg.Record = rec
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Trace().Events
	}

	full, fullEvs := run(0)
	sampled, sampledEvs := run(2)

	// Instrumentation must not perturb the schedule.
	if err := traceDiff(fullEvs, sampledEvs); err != nil {
		t.Fatalf("the schedule differs between mixing cadences: %v", err)
	}
	if full.TotalBytes != sampled.TotalBytes || full.SimTime != sampled.SimTime {
		t.Fatalf("ledger/time differ between mixing cadences")
	}

	// Row gaps: finite on sampled epochs, NaN on skipped ones.
	sawNaN, sawFinite := false, false
	for _, rm := range sampled.Rounds {
		if math.IsNaN(rm.SpectralGap) {
			if rm.Epoch%2 == 0 {
				t.Fatalf("row %d (epoch %d): NaN gap on a sampled epoch", rm.Round, rm.Epoch)
			}
			sawNaN = true
		} else {
			if rm.Epoch%2 != 0 {
				t.Fatalf("row %d (epoch %d): finite gap on a skipped epoch", rm.Round, rm.Epoch)
			}
			if rm.SpectralGap <= 0 || rm.SpectralGap > 1 {
				t.Fatalf("row %d: gap %v outside (0,1]", rm.Round, rm.SpectralGap)
			}
			sawFinite = true
		}
	}
	if !sawFinite {
		t.Fatal("no sampled epoch produced a gap")
	}
	if !sawNaN && sampled.Epochs > 1 {
		t.Fatal("no skipped epoch appeared in rows despite multiple epochs")
	}

	if math.IsNaN(sampled.SpectralGapMean) || sampled.SpectralGapMean <= 0 {
		t.Fatalf("sampled gap mean %v", sampled.SpectralGapMean)
	}
	// Turnover is always on, sampling or not.
	if sampled.TurnoverMean != full.TurnoverMean {
		t.Fatalf("turnover differs: %v vs %v", sampled.TurnoverMean, full.TurnoverMean)
	}

	// MixingEvery < 0: never compute; aggregates are NaN, run still works.
	never, _ := run(-1)
	if !math.IsNaN(never.SpectralGapMean) || !math.IsNaN(never.SpectralGapMin) {
		t.Fatalf("never-sampled run reports gaps (%v, %v)", never.SpectralGapMean, never.SpectralGapMin)
	}
	if never.TotalBytes != full.TotalBytes {
		t.Fatalf("disabling mixing changed the ledger")
	}
}
