package simulation

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/trace"
)

// streamMut is the shared run configuration of the streaming-parity tests:
// stragglers, churn, and message drops, so the streamed schedule covers every
// event kind.
func streamMut(cfg *AsyncConfig) {
	cfg.Het = Heterogeneity{ComputeSpread: 0.4, BandwidthSpread: 0.3, LatencySpread: 0.2, Seed: 5}
	cfg.Churn = GenerateChurn(8, 0.25, 0.02, 0.2, 0.1, 77)
	cfg.DropProb = 0.1
	cfg.FaultSeed = 3
}

// TestStreamRecorderEngineParity: recording a run through a StreamRecorder
// must produce byte-for-byte the file the in-memory Recorder serializes to —
// and reading the stream back must replay into the identical schedule. This
// is the record→stream→read→replay loop the 1024-node arms rely on, where
// only the streaming sink's bounded memory is viable.
func TestStreamRecorderEngineParity(t *testing.T) {
	const rounds = 10
	header := trace.Header{Nodes: 8, Rounds: rounds, Source: trace.SourceSim, Policy: trace.PolicyBarrier}

	// Reference: in-memory recorder, serialized after the fact.
	rec := trace.NewRecorder(header)
	eng := asyncEngineFor(t, algoJWINS, rounds, func(cfg *AsyncConfig) {
		streamMut(cfg)
		cfg.Record = rec
	})
	recRes, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("binary", func(t *testing.T) {
		var want bytes.Buffer
		if err := trace.Write(&want, rec.Trace()); err != nil {
			t.Fatal(err)
		}

		// Same run, streamed as it executes.
		var got bytes.Buffer
		sr, err := trace.NewStreamRecorder(&got, header)
		if err != nil {
			t.Fatal(err)
		}
		eng2 := asyncEngineFor(t, algoJWINS, rounds, func(cfg *AsyncConfig) {
			streamMut(cfg)
			cfg.Record = sr
		})
		if _, err := eng2.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sr.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("streamed recording differs from serialized in-memory recording (%d vs %d bytes)",
				got.Len(), want.Len())
		}

		// Read the stream back and replay it as the authoritative schedule.
		decoded, err := trace.Read(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rp, err := trace.NewReplayer(decoded)
		if err != nil {
			t.Fatal(err)
		}
		rec2 := trace.NewRecorder(decoded.Header)
		eng3 := asyncEngineFor(t, algoJWINS, rounds, func(cfg *AsyncConfig) {
			cfg.Replay = rp
			cfg.Record = rec2
		})
		repRes, err := eng3.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rec2.Trace().Events) != len(rec.Trace().Events) {
			t.Fatalf("replay produced %d events, recorded %d", len(rec2.Trace().Events), len(rec.Trace().Events))
		}
		for i := range rec.Trace().Events {
			if rec2.Trace().Events[i] != rec.Trace().Events[i] {
				t.Fatalf("event %d differs after stream round trip", i)
			}
		}
		if repRes.TotalBytes != recRes.TotalBytes || repRes.SimTime != recRes.SimTime {
			t.Fatalf("replay ledger/time (%d, %v) differ from recorded (%d, %v)",
				repRes.TotalBytes, repRes.SimTime, recRes.TotalBytes, recRes.SimTime)
		}
	})
}

// TestMixingEverySamples: with MixingEvery = 2, only epochs at even indices
// carry a finite spectral gap (others are NaN in rows), the Result mean
// covers sampled epochs only, and the schedule itself — which must not
// depend on instrumentation — is unchanged from the every-epoch run.
func TestMixingEverySamples(t *testing.T) {
	const (
		rounds   = 12
		epochSec = 0.05
	)
	run := func(every int) (*Result, []Event) {
		var evs []Event
		eng := dynEngineFor(t, algoJWINS, rounds, epochSec, func(cfg *AsyncConfig) {
			cfg.MixingEvery = every
			cfg.OnEvent = func(ev Event) { evs = append(evs, ev) }
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, evs
	}

	full, fullEvs := run(0)
	sampled, sampledEvs := run(2)

	// Instrumentation must not perturb the schedule.
	if len(fullEvs) != len(sampledEvs) {
		t.Fatalf("event counts differ: %d vs %d", len(fullEvs), len(sampledEvs))
	}
	for i := range fullEvs {
		a, b := fullEvs[i], sampledEvs[i]
		if a.Time != b.Time || a.Seq != b.Seq || a.Kind != b.Kind || a.Node != b.Node ||
			a.From != b.From || a.Iter != b.Iter || a.Dropped != b.Dropped {
			t.Fatalf("event %d differs between mixing cadences", i)
		}
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
