package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/simulation"
	"repro/internal/trace"
)

// processStart approximates process start: package initialisation runs
// before main and after the runtime's own few milliseconds.
var processStart = time.Now()

// Run modes. Each run is one fresh child process.
const (
	modeSetup  = "setup"  // set-up only: build everything, run nothing
	modeE2E    = "e2e"    // default parallelism, nothing wrapped
	modeSerial = "serial" // Parallelism 1, nothing wrapped
	modeTraced = "traced" // Parallelism 1, every node, model and sink wrapped
)

// outputs are the run's deterministic results: identical for a given
// workload, size and seed whatever the mode.
type outputs struct {
	BytesTotal int64   `json:"bytes_total"`
	ModelBytes int64   `json:"model_bytes"`
	MetaBytes  int64   `json:"meta_bytes"`
	FinalAcc   float64 `json:"final_acc"`
	FinalLoss  float64 `json:"final_loss"`
	SimS       float64 `json:"sim_s"`
	Rows       int     `json:"rows"`
	Epochs     int     `json:"epochs"`
	Events     int     `json:"events"` // recorded trace events (scale-async)

	// The first evaluation row at or above the workload's target accuracy,
	// when it has one: the paper's cost to an accuracy. Round 0 = not reached.
	TargetRound int     `json:"target_round"`
	TargetBytes int64   `json:"target_bytes"`
	TargetSimS  float64 `json:"target_sim_s"`
}

// runRecord is what a child reports to the parent, as one JSON line.
type runRecord struct {
	Mode     string   `json:"mode"`
	Ops      int      `json:"ops"` // node-rounds
	Params   int      `json:"params"`
	Out      outputs  `json:"outputs"`
	Failures []string `json:"failures"` // failed correctness checks, by name

	SetupS float64 `json:"setup_s"`
	SynthS float64 `json:"synth_s"`
	FleetS float64 `json:"fleet_s"`
	WallS  float64 `json:"wall_s"`
	PeakMB float64 `json:"peak_rss_mb"`

	// Heap traffic of Run() alone.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`

	// TargetWallS is the time from Run()'s start to the target row.
	TargetWallS float64 `json:"target_wall_s"`

	TraceBytes int64   `json:"trace_bytes"`
	TraceReadS float64 `json:"trace_read_s"`

	// Traced mode only: the accumulated spans and the layer metrics derived
	// from them, from the probes and from engine telemetry.
	Spans []spanRecord       `json:"spans,omitempty"`
	Layer map[string]float64 `json:"layer,omitempty"`
}

// runChild performs one run of wl and returns its record. A run that aborts
// returns an error; failed checks are listed in the record.
func runChild(wl *workload, sz size, seed uint64, mode string) (*runRecord, error) {
	var h hooks
	if mode != modeE2E {
		h.parallelism = 1
	}
	if mode == modeTraced {
		h.tr = newTracer()
	}
	rec := &runRecord{Mode: mode, Ops: sz.nodes * sz.rounds}
	var runStart time.Time
	if sz.target > 0 {
		h.onRound = func(m simulation.RoundMetrics) {
			if rec.Out.TargetRound == 0 && m.TestAcc >= sz.target { // NaN on rows without evaluation
				rec.TargetWallS = time.Since(runStart).Seconds()
				rec.Out.TargetRound, rec.Out.TargetBytes, rec.Out.TargetSimS = m.Round+1, m.CumTotalBytes, m.SimTime
			}
		}
	}
	b, err := wl.build(wl, sz, seed, h)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", wl.name, err)
	}
	defer b.cleanup()
	rec.Params, rec.SynthS, rec.FleetS = b.fleet[0].Model().ParamCount(), b.synthS, b.fleetS

	rec.SetupS = time.Since(processStart).Seconds()
	if mode == modeSetup {
		return rec, nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *simulation.Result
	runStart = time.Now()
	if h.tr != nil {
		span := h.tr.begin()
		res, err = b.run()
		h.tr.exit(span)
	} else {
		res, err = b.run()
	}
	rec.WallS = time.Since(runStart).Seconds()
	if err != nil {
		return nil, fmt.Errorf("running %s: %w", wl.name, err)
	}
	rec.PeakMB = peakRSSMB()
	runtime.ReadMemStats(&after)
	rec.Mallocs = after.Mallocs - before.Mallocs
	rec.AllocBytes = after.TotalAlloc - before.TotalAlloc

	rec.Out.BytesTotal, rec.Out.ModelBytes, rec.Out.MetaBytes = res.TotalBytes, res.ModelBytes, res.MetaBytes
	rec.Out.FinalAcc, rec.Out.FinalLoss, rec.Out.SimS = res.FinalAccuracy, res.FinalLoss, res.SimTime
	rec.Out.Rows, rec.Out.Epochs = len(res.Rounds), res.Epochs
	if len(res.Rounds) != sz.rounds {
		rec.Failures = append(rec.Failures, fmt.Sprintf("rows: %d result rows for %d rounds", len(res.Rounds), sz.rounds))
	}
	if !(res.FinalLoss <= sz.maxLoss) {
		rec.Failures = append(rec.Failures, fmt.Sprintf("learning: final test loss %.4f is above %.2f", res.FinalLoss, sz.maxLoss))
	}
	if sz.target > 0 && rec.Out.TargetRound == 0 {
		rec.Failures = append(rec.Failures, fmt.Sprintf("target: no evaluation row reached accuracy %.2f in %d rounds (final %.4f)", sz.target, sz.rounds, res.FinalAccuracy))
	}
	if wl.maxDenseShare > 0 {
		dense := float64(sz.rounds) * float64(b.w.Nodes*b.w.Degree) * 4 * float64(rec.Params)
		if share := float64(res.TotalBytes) / dense; share > wl.maxDenseShare {
			rec.Failures = append(rec.Failures, fmt.Sprintf("byte saving: bytes_total is %.2f of the dense float32 ledger, above %.2f", share, wl.maxDenseShare))
		}
	}
	if b.recorder != nil {
		rec.Out.Events = b.recorder.Len()
		n, size, readS, err := readTrace(b.tracePath)
		rec.TraceBytes, rec.TraceReadS = size, readS
		if err != nil {
			rec.Failures = append(rec.Failures, "trace read-back: "+err.Error())
		} else if n != rec.Out.Events {
			rec.Failures = append(rec.Failures, fmt.Sprintf("trace read-back: reader counted %d events, recorder wrote %d", n, rec.Out.Events))
		}
	}

	if h.tr != nil {
		rec.Spans = h.tr.records()
		// The sync engine enters no epochs and attaches no telemetry: both
		// read zero there.
		var failed []string
		rec.Layer, failed = runProbes(probeInputs{
			b: b, tr: h.tr, epochs: res.Epochs,
			decodeHitRate: simulation.Summarize(res.Telemetry).DecodeHitRate,
		})
		rec.Failures = append(rec.Failures, failed...)
		spanMetrics(rec.Layer, h.tr, rec, res)
	}
	return rec, nil
}

// readTrace reads the streamed trace back event by event and returns the
// reader's count, the file size and the seconds the read took.
func readTrace(path string) (events int, size int64, seconds float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	start := time.Now()
	sr, err := trace.NewStreamReader(f)
	if err != nil {
		return 0, size, 0, err
	}
	for {
		if _, err := sr.Next(); err == io.EOF {
			break
		} else if err != nil {
			return sr.Count(), size, time.Since(start).Seconds(), err
		}
	}
	return sr.Count(), size, time.Since(start).Seconds(), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
