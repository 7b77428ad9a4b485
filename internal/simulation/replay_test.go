package simulation

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// recordedRun executes one async run with a recorder attached and returns
// the trace and the result.
func recordedRun(t *testing.T, rounds int, mut func(*AsyncConfig)) (*trace.Trace, *Result) {
	t.Helper()
	var rec *trace.Recorder
	eng := asyncEngineFor(t, algoJWINS, rounds, func(cfg *AsyncConfig) {
		if mut != nil {
			mut(cfg)
		}
		policy := trace.PolicyBarrier
		meta := map[string]string{}
		if cfg.Policy != nil {
			policy = cfg.Policy.Name()
			switch p := cfg.Policy.(type) {
			case BoundedStalenessPolicy:
				meta["policy_k"] = strconv.Itoa(p.K)
				meta["policy_tau"] = strconv.Itoa(p.Tau)
				meta["policy_adaptive"] = strconv.FormatBool(p.AdaptiveTau)
			case DeadlinePolicy:
				meta["policy_deadline_factor"] = strconv.FormatFloat(p.Factor, 'g', -1, 64)
			}
		}
		rec = trace.NewRecorder(trace.Header{
			Nodes: 8, Rounds: rounds, Source: trace.SourceSim, Policy: policy, Meta: meta,
		})
		cfg.Record = rec
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace(), res
}

// TestReplayMismatchErrors: replaying against a different configuration must
// fail loudly, not silently produce a wrong run.
func TestReplayMismatchErrors(t *testing.T) {
	recorded, _ := recordedRun(t, 5, nil)

	// Wrong node count.
	rp, err := trace.NewReplayer(recorded)
	if err != nil {
		t.Fatal(err)
	}
	smaller := recorded.Header
	smaller.Nodes = 4
	if _, err := trace.NewReplayer(&trace.Trace{Header: smaller, Events: recorded.Events}); err == nil {
		t.Fatal("replayer accepted header/event node mismatch")
	}

	// Bigger iteration budget than the recording: the schedule runs dry.
	eng := asyncEngineFor(t, algoJWINS, 9, func(cfg *AsyncConfig) {
		cfg.Replay = rp
	})
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("oversized replay budget: got %v, want replay stall error", err)
	}
}

// TestRecordedEarlyStopReplays: a run that stops at its target accuracy
// records only the executed prefix; the header must advertise the executed
// budget so the truncated trace replays cleanly instead of stalling.
func TestRecordedEarlyStopReplays(t *testing.T) {
	var rec *trace.Recorder
	eng := asyncEngineFor(t, algoJWINS, 30, func(cfg *AsyncConfig) {
		cfg.EvalEvery = 2
		cfg.TargetAccuracy = 0.3 // reached well before the 30-iteration budget
		rec = trace.NewRecorder(trace.Header{
			Nodes: 8, Rounds: 30, Source: trace.SourceSim, Policy: trace.PolicyBarrier,
		})
		cfg.Record = rec
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToTarget <= 0 || len(res.Rounds) >= 30 {
		t.Fatalf("run did not stop early (rows %d, target round %d); test needs a truncated recording",
			len(res.Rounds), res.RoundsToTarget)
	}
	hdr := rec.Trace().Header
	if hdr.Rounds != len(res.Rounds) {
		t.Fatalf("header advertises %d rounds, run executed %d", hdr.Rounds, len(res.Rounds))
	}

	rp, err := trace.NewReplayer(rec.Trace())
	if err != nil {
		t.Fatal(err)
	}
	rec2 := trace.NewRecorder(hdr)
	eng2 := asyncEngineFor(t, algoJWINS, hdr.Rounds, func(cfg *AsyncConfig) {
		cfg.EvalEvery = 2
		cfg.Replay = rp
		cfg.Record = rec2
	})
	repRes, err := eng2.Run()
	if err != nil {
		t.Fatalf("truncated trace did not replay: %v", err)
	}
	if len(repRes.Rounds) != len(res.Rounds) {
		t.Fatalf("replay emitted %d rows, recording executed %d", len(repRes.Rounds), len(res.Rounds))
	}
	a, b := rec.Trace().Events, rec2.Trace().Events
	if len(a) != len(b) {
		t.Fatalf("event counts differ: recorded %d, replayed %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestStalenessMetrics: the barrier policy in the homogeneous no-churn limit
// merges only current-iteration payloads (zero staleness everywhere), while
// gossip under heterogeneity must observe nonzero lag. Rows and the result
// summary both carry the distribution.
func TestStalenessMetrics(t *testing.T) {
	clean := runAsync(t, algoFull, 10, nil)
	if clean.StaleMean != 0 || clean.StaleMax != 0 || clean.StaleP95 != 0 {
		t.Fatalf("degenerate barrier run reports staleness: %+v", clean)
	}
	for _, rm := range clean.Rounds {
		if rm.StaleMean != 0 || rm.StaleMax != 0 {
			t.Fatalf("degenerate barrier row %d reports staleness: %+v", rm.Round, rm)
		}
	}

	gossip := runAsync(t, algoFull, 20, func(cfg *AsyncConfig) {
		cfg.Policy = GossipPolicy{}
		cfg.Het = Heterogeneity{ComputeSpread: 1.2, Seed: 7}
	})
	if gossip.StaleMax <= 0 {
		t.Fatal("gossip under heavy heterogeneity observed no staleness")
	}
	if gossip.StaleMean <= 0 || gossip.StaleMean > gossip.StaleMax {
		t.Fatalf("implausible staleness summary: mean %v, max %v", gossip.StaleMean, gossip.StaleMax)
	}
	if gossip.StaleP95 < gossip.StaleMean-1e-9 || gossip.StaleP95 > gossip.StaleMax+1e-9 {
		t.Fatalf("p95 %v outside [mean %v, max %v]", gossip.StaleP95, gossip.StaleMean, gossip.StaleMax)
	}
	anyRow := false
	for _, rm := range gossip.Rounds {
		if rm.StaleMax > 0 {
			anyRow = true
		}
		if math.IsNaN(rm.StaleMean) {
			t.Fatalf("row %d staleness is NaN", rm.Round)
		}
	}
	if !anyRow {
		t.Fatal("no row carries the observed staleness")
	}
}

// TestRecordedTraceValidates: what the engine records must satisfy the strict
// reader (monotone times, in-range ids) byte for byte.
func TestRecordedTraceValidates(t *testing.T) {
	recorded, _ := recordedRun(t, 8, func(cfg *AsyncConfig) {
		cfg.Het = Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.5, Seed: 3}
		cfg.Churn = GenerateChurn(8, 0.25, 0.02, 0.3, 0.1, 9)
		cfg.DropProb = 0.15
		cfg.FaultSeed = 8
	})
	if err := trace.Validate(recorded.Header, recorded.Events); err != nil {
		t.Fatalf("recorded trace fails validation: %v", err)
	}
	if len(recorded.Events) == 0 {
		t.Fatal("nothing recorded")
	}
	kinds := map[trace.Kind]int{}
	for _, ev := range recorded.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindTrainDone, trace.KindSend, trace.KindArrival,
		trace.KindAggregate, trace.KindLeave, trace.KindJoin} {
		if kinds[k] == 0 {
			t.Fatalf("no %v events recorded: %v", k, kinds)
		}
	}
}
