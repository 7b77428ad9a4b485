package simulation

// property_test.go holds the engines' guarantees over seeded random
// scenarios. drawScenario draws an engine configuration from a seed, execute
// runs it, and checkScenario holds every run of it to the invariants:
//
//	I1 serial ≡ parallel: pool widths 1, 1, 2 (and NumCPU above 2) give the
//	   same recorded trace, every non-telemetry Result field and every row
//	   (and, under the synchronous engine, every node's final parameters);
//	I2 record ≡ replay: the width-1 recording, through trace.Write/Read,
//	   replays with Het, Churn and DropProb perturbed into the same trace,
//	   ledger and rows;
//	I3 streamed ≡ in-memory: at every width the StreamRecorder bytes are
//	   trace.Write of the in-memory recording;
//	I4 ledger conservation: the send records sum to the Result's byte
//	   totals, and every row's model and metadata bytes sum to its total;
//	I5 causality: every arrival matches an earlier send with the same
//	   sender, receiver, iteration and drop flag, every epoch's state
//	   sync runs both ways over each fresh edge, and a barrier joiner's
//	   first aggregate waits to hear from each node that synced it;
//	I6 progress: every row is emitted (unless the run stopped at its
//	   target) within a record budget, each node's aggregate iterations
//	   strictly increase, and the rows' SimTime and CumTotalBytes never
//	   decrease;
//	I7 node contract: a width-2 run with every node wrapped in a
//	   contractNode sees no model change between a Share and its Aggregate,
//	   no Aggregate without a Share before it, weight rows that are
//	   non-negative and sum to 1, messages only from the row's neighbours
//	   and no evaluation of a model trained ahead of the schedule — and
//	   records the unwrapped run's ledger and trace;
//	I8 degenerate parity: an async barrier run without heterogeneity, churn,
//	   drops or rotation has the synchronous engine's row bytes, and its
//	   losses to rounding.
//
// regressionScenarios keeps the configurations of the hand-picked tests the
// harness replaced, and every draw that ever failed it, as named rows. A
// failing draw prints itself as a Go literal to paste there.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// propertyDraws is the number of seeded draws TestEngineProperties checks
// besides the regression rows. A race build, where every run is about 17
// times slower, checks the first raceDraws of them; the plain build checks
// all of them.
const propertyDraws, raceDraws = 96, 24

// churnSpec is the GenerateChurn call of a scenario (none at Fraction 0).
type churnSpec struct {
	Fraction, Start, End, MeanDown float64
	Seed                           uint64
}

// scenario is one engine configuration over the test image task (buildTask
// up to 16 nodes, buildFleetTask past that) and a 4-regular graph, with
// fleet seed 7. Every field is a value, so a scenario prints as the literal
// that rebuilds it.
type scenario struct {
	Async bool
	Algo  algo
	Codec string // "raw32" or "flate32"
	Nodes int
	// GraphSeed seeds the 4-regular graph; Dynamic re-draws it per round
	// (sync) or per epoch (async, with EpochSec > 0) from the same seed.
	GraphSeed  uint64
	Dynamic    bool
	Rounds     int
	EvalEvery  int
	EvalSample int
	EvalSeed   uint64
	DropProb   float64
	FaultSeed  uint64
	// Async only: topology rotation, mixing cadence, the aggregation policy
	// by its trace name and parameters, profiles and churn.
	EpochSec    float64
	MixingEvery int
	Policy      string
	K, Tau      int
	Adaptive    bool
	Factor      float64
	Het         Heterogeneity
	Churn       churnSpec
}

var algoNames = map[algo]string{algoFull: "algoFull", algoRandom: "algoRandom", algoJWINS: "algoJWINS", algoChoco: "algoChoco"}

// GoString prints sc as the Go literal that rebuilds it, zero fields left out.
func (sc scenario) GoString() string { return goLiteral(reflect.ValueOf(sc)) }

func goLiteral(v reflect.Value) string {
	switch {
	case v.Type() == reflect.TypeOf(algo(0)):
		return algoNames[algo(v.Int())]
	case v.Kind() == reflect.String:
		return strconv.Quote(v.String())
	case v.Kind() != reflect.Struct:
		return fmt.Sprint(v)
	}
	var fields []string
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			fields = append(fields, v.Type().Field(i).Name+": "+goLiteral(v.Field(i)))
		}
	}
	return v.Type().Name() + "{" + strings.Join(fields, ", ") + "}"
}

// topologyMode names the scenario's topology for the coverage table.
func (sc scenario) topologyMode() string {
	switch {
	case !sc.Async && sc.Dynamic:
		return "sync-dynamic"
	case !sc.Async:
		return "sync-static"
	case sc.EpochSec == 0:
		return "static"
	case sc.Dynamic:
		return "dynamic+epochs"
	}
	return "static+epochs"
}

func (sc scenario) policyName() string {
	if sc.Policy == "" {
		return trace.PolicyBarrier
	}
	return sc.Policy
}

// degenerate reports whether I8 applies: an async barrier run with nothing
// the synchronous engine lacks.
func (sc scenario) degenerate() bool {
	return sc.Async && sc.policyName() == trace.PolicyBarrier && sc.Het == (Heterogeneity{}) &&
		sc.Churn.Fraction == 0 && sc.DropProb == 0 && sc.EpochSec == 0
}

// drawScenario draws one configuration the engines accept: the engine, the
// algorithm and codec, 8, 12 or 16 nodes, 6–12 rounds, EvalEvery 2–5 and
// EvalSample 0 or n/4, drops at 0 or 0.1; a sync draw adds Dynamic, an async
// one a policy, the Het spreads, churn of 0 or 0.25 and the topology mode.
// Churn and epochs land inside the shortest run a draw can make (about
// 6 × 20 ms of simulated time).
func drawScenario(seed uint64) scenario {
	rng := vec.NewRNG(seed)
	coin := func() bool { return rng.Intn(2) == 1 }
	frac := func(lo, hi float64) float64 { return math.Round((lo+(hi-lo)*rng.Float64())*100) / 100 }
	sc := scenario{
		Async:     rng.Intn(4) != 0,
		Algo:      algo(rng.Intn(4)),
		Codec:     []string{"raw32", "flate32"}[rng.Intn(2)],
		Nodes:     8 + 4*rng.Intn(3),
		GraphSeed: 1 + uint64(rng.Intn(999)),
		Rounds:    6 + rng.Intn(7),
		EvalEvery: 2 + rng.Intn(4),
		EvalSeed:  1 + uint64(rng.Intn(999)),
	}
	if coin() {
		sc.EvalSample = sc.Nodes / 4
	}
	if coin() {
		sc.DropProb, sc.FaultSeed = 0.1, 1+uint64(rng.Intn(999))
	}
	if !sc.Async {
		sc.Dynamic = coin()
		return sc
	}
	switch rng.Intn(3) {
	case 1:
		sc.EpochSec = frac(0.02, 0.05)
	case 2:
		sc.Dynamic, sc.EpochSec = true, frac(0.02, 0.05)
	}
	switch rng.Intn(4) {
	case 1:
		sc.Policy = trace.PolicyGossip
	case 2:
		sc.Policy, sc.K, sc.Tau = trace.PolicyBounded, 1+rng.Intn(4), rng.Intn(4)
		sc.Adaptive = sc.EpochSec > 0 && coin()
	case 3:
		sc.Policy, sc.Factor = trace.PolicyDeadline, frac(0.5, 2)
	}
	if coin() {
		spread := func() float64 {
			if coin() {
				return 0
			}
			return frac(0.1, 1)
		}
		sc.Het = Heterogeneity{ComputeSpread: spread(), BandwidthSpread: spread(), LatencySpread: spread(), Seed: 1 + uint64(rng.Intn(999))}
	}
	if coin() {
		sc.Churn = churnSpec{Fraction: 0.25, Start: 0.01, End: 0.05, MeanDown: 0.05, Seed: 1 + uint64(rng.Intn(999))}
	}
	return sc
}

// regressionScenarios are the named rows every run of the harness checks:
// the configurations of the hand-picked tests it replaced, and draws that
// once failed it (none has yet).
var regressionScenarios = []struct {
	name string
	sc   scenario
}{
	// Serial ≡ parallel (I1) across fleets, policies, rotation, sampled
	// evaluation and the synchronous engine.
	{"parallelism/homogeneous", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 16, GraphSeed: 9, Rounds: 10, EvalEvery: 5}},
	{"parallelism/het+churn+drops", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 16, GraphSeed: 9, Rounds: 10, EvalEvery: 5, DropProb: 0.1, FaultSeed: 3,
		Het: Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.4, LatencySpread: 0.2, Seed: 5}, Churn: churnSpec{0.25, 0.02, 0.2, 0.1, 77}}},
	{"parallelism/het+churn+drops+full-sharing", scenario{Async: true, Algo: algoFull, Codec: "raw32", Nodes: 16, GraphSeed: 9, Rounds: 10, EvalEvery: 5, DropProb: 0.1, FaultSeed: 3,
		Het: Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.4, LatencySpread: 0.2, Seed: 5}, Churn: churnSpec{0.25, 0.02, 0.2, 0.1, 77}}},
	{"parallelism/gossip", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 12, EvalEvery: 5, Policy: trace.PolicyGossip,
		Het: Heterogeneity{ComputeSpread: 0.8, BandwidthSpread: 0.3, Seed: 21}, Churn: churnSpec{0.25, 0.02, 0.3, 0.1, 13}}},
	{"parallelism/bounded", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 12, EvalEvery: 5, Policy: trace.PolicyBounded, K: 2, Tau: 1,
		Het: Heterogeneity{ComputeSpread: 0.8, BandwidthSpread: 0.3, Seed: 21}, Churn: churnSpec{0.25, 0.02, 0.3, 0.1, 13}}},
	{"parallelism/deadline", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 12, EvalEvery: 5, DropProb: 0.05, FaultSeed: 3,
		Policy: trace.PolicyDeadline, Factor: 1.2, Het: Heterogeneity{ComputeSpread: 1.0, BandwidthSpread: 0.4, Seed: 5}}},
	{"parallelism/dyntopo", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Dynamic: true, EpochSec: 0.05, Rounds: 10, EvalEvery: 5, DropProb: 0.1, FaultSeed: 3,
		Het: Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.4, Seed: 5}, Churn: churnSpec{0.25, 0.02, 0.2, 0.1, 77}}},
	{"parallelism/sampled-eval", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 8, EvalEvery: 2, EvalSample: 3, EvalSeed: 17,
		Het: Heterogeneity{ComputeSpread: 0.4, Seed: 5}}},
	{"parallelism/sync-drops", scenario{Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 8, EvalEvery: 4, DropProb: 0.1, FaultSeed: 3}},
	{"deterministic-trace", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 8, EvalEvery: 8, DropProb: 0.1, FaultSeed: 3,
		Het: Heterogeneity{ComputeSpread: 0.4, BandwidthSpread: 0.3, LatencySpread: 0.2, Seed: 5}, Churn: churnSpec{0.25, 0.02, 0.2, 0.1, 77}}},
	// A barrier joiner waits for its neighbours' state sync (I5): fast
	// trainers and slow links churned briefly, where the mailbox a node held
	// before it left would let it aggregate before any sync arrives.
	{"rejoin/barrier-fast-train-slow-sync", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 12, EvalEvery: 12,
		Het: Heterogeneity{ComputeSpread: 1.0, LatencySpread: 1.0, Seed: 7}, Churn: churnSpec{0.5, 0.01, 0.15, 0.01, 107}}},
	// Record ≡ replay (I2) and streamed ≡ in-memory (I3) under every policy
	// and under rotation.
	{"replay/barrier-churn-drops", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 10, EvalEvery: 10, DropProb: 0.1, FaultSeed: 3,
		Het: Heterogeneity{ComputeSpread: 0.4, BandwidthSpread: 0.3, LatencySpread: 0.2, Seed: 5}, Churn: churnSpec{0.25, 0.02, 0.2, 0.1, 77}}},
	{"replay/gossip-het", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 10, EvalEvery: 10, Policy: trace.PolicyGossip,
		Het: Heterogeneity{ComputeSpread: 0.6, BandwidthSpread: 0.4, Seed: 21}}},
	{"replay/bounded-het-churn", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 10, EvalEvery: 10, Policy: trace.PolicyBounded, K: 2, Tau: 1,
		Het: Heterogeneity{ComputeSpread: 0.7, BandwidthSpread: 0.3, Seed: 11}, Churn: churnSpec{0.25, 0.02, 0.3, 0.1, 9}}},
	{"replay/deadline-het-drops", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 10, EvalEvery: 10, DropProb: 0.1, FaultSeed: 3,
		Policy: trace.PolicyDeadline, Factor: 1.2, Het: Heterogeneity{ComputeSpread: 1.0, BandwidthSpread: 0.4, Seed: 5}}},
	{"replay/dyntopo", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Dynamic: true, EpochSec: 0.06, Rounds: 10, EvalEvery: 10, DropProb: 0.1, FaultSeed: 3,
		Het: Heterogeneity{ComputeSpread: 0.4, BandwidthSpread: 0.3, LatencySpread: 0.2, Seed: 5}, Churn: churnSpec{0.25, 0.02, 0.2, 0.1, 77}}},
	// The node contract (I7) under drops and, at 48 nodes with churn,
	// rotation and speculation, under every policy.
	{"contract/sync-drop", scenario{Algo: algoJWINS, Codec: "raw32", Nodes: 12, GraphSeed: 9, Rounds: 6, EvalEvery: 3, DropProb: 0.2, FaultSeed: 3}},
	{"contract/async-barrier-48", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 48, GraphSeed: 9, Dynamic: true, EpochSec: 0.05, MixingEvery: -1, Rounds: 8, EvalEvery: 4, EvalSample: 6, EvalSeed: 11,
		Het: Heterogeneity{ComputeSpread: 0.4, Seed: 5}, Churn: churnSpec{0.2, 0.02, 0.15, 0.04, 77}}},
	{"contract/async-gossip-48", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 48, GraphSeed: 9, Dynamic: true, EpochSec: 0.05, MixingEvery: -1, Rounds: 8, EvalEvery: 4,
		Policy: trace.PolicyGossip, Het: Heterogeneity{ComputeSpread: 0.4, Seed: 5}, Churn: churnSpec{0.2, 0.02, 0.15, 0.04, 77}}},
	{"contract/async-bounded-48", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 48, GraphSeed: 9, Dynamic: true, EpochSec: 0.05, MixingEvery: -1, Rounds: 8, EvalEvery: 4,
		Policy: trace.PolicyBounded, K: 2, Tau: 2, Adaptive: true, Het: Heterogeneity{ComputeSpread: 0.4, Seed: 5}, Churn: churnSpec{0.2, 0.02, 0.15, 0.04, 77}}},
	{"contract/async-deadline-48", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 48, GraphSeed: 9, Dynamic: true, EpochSec: 0.05, MixingEvery: -1, Rounds: 8, EvalEvery: 4,
		Policy: trace.PolicyDeadline, Factor: 1.5, Het: Heterogeneity{ComputeSpread: 0.4, Seed: 5}, Churn: churnSpec{0.2, 0.02, 0.15, 0.04, 77}}},
	// Progress (I6) under stragglers and churn, and the sync ledger.
	{"monotone/async-simtime", scenario{Async: true, Algo: algoFull, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 15, EvalEvery: 15,
		Het: Heterogeneity{ComputeSpread: 0.6, BandwidthSpread: 0.4, Seed: 31}, Churn: churnSpec{0.25, 0.05, 0.3, 0.1, 33}}},
	{"monotone/sync-bytes", scenario{Algo: algoRandom, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 8, EvalEvery: 8}},
	// Async ≡ sync in the degenerate case (I8) over 20 rounds.
	{"degenerate/async-vs-sync", scenario{Async: true, Algo: algoJWINS, Codec: "raw32", Nodes: 8, GraphSeed: 9, Rounds: 20, EvalEvery: 20}},
}

// regressionRow returns the named row's scenario.
func regressionRow(t *testing.T, name string) scenario {
	for _, r := range regressionScenarios {
		if r.name == name {
			return r.sc
		}
	}
	t.Fatalf("no regression row %q", name)
	return scenario{}
}

// parallelismLevels are the pool widths the engines are compared at.
// NumCPU is appended so hosts with more cores stress the pool harder.
func parallelismLevels() []int {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	return levels
}

// outcome is what one run of a scenario observably produced.
type outcome struct {
	res       *Result
	recording *trace.Trace  // the in-memory recording (async)
	trace     []trace.Event // its records
	stream    []byte        // the StreamRecorder bytes of the same run
	params    uint64        // hash of every node's final parameters
}

// runOpts varies one execution of a scenario.
type runOpts struct {
	// wrap, when set, replaces the fleet before the engine sees it.
	wrap func([]core.Node) []core.Node
	// sink, when set, also sees every record of an async run.
	sink trace.Sink
	// replay, when set, is the authoritative schedule; the run's Het, Churn
	// and DropProb are perturbed so that only the recording can reproduce it.
	replay *trace.Trace
}

// execute runs sc once at pool width w. Width 2 and above runs with
// telemetry on.
func execute(t *testing.T, sc scenario, w int, o runOpts) *outcome {
	t.Helper()
	ds, parts := buildTask(t, sc.Nodes, 42)
	if sc.Nodes > 16 {
		ds, parts = buildFleetTask(t, sc.Nodes, 42)
	}
	var fc codec.FloatCodec = codec.Raw32{}
	if sc.Codec == "flate32" {
		fc = codec.PlaneFlate32{}
	}
	inner := buildNodesWithCodec(t, sc.Algo, ds, parts, 7, fc)
	nodes := inner
	if o.wrap != nil {
		nodes = o.wrap(append([]core.Node(nil), inner...))
	}
	var provider topology.Provider
	if sc.Dynamic {
		provider = topology.NewSeededDynamic(sc.Nodes, 4, sc.GraphSeed)
	} else {
		g, err := topology.Regular(sc.Nodes, 4, vec.NewRNG(sc.GraphSeed))
		if err != nil {
			t.Fatal(err)
		}
		provider = topology.NewStatic(g)
	}
	cfg := Config{
		Rounds: sc.Rounds, EvalEvery: sc.EvalEvery, EvalSample: sc.EvalSample, EvalSeed: sc.EvalSeed,
		Parallelism: w, DropProb: sc.DropProb, FaultSeed: sc.FaultSeed,
	}
	out := &outcome{}
	var err error
	if !sc.Async {
		out.res, err = (&Engine{Nodes: nodes, Topology: provider, TestSet: ds, Config: cfg}).Run()
	} else {
		if sc.EpochSec > 0 {
			provider = topology.NewEpochProvider(provider, sc.Nodes, sc.EpochSec)
		}
		policy, perr := PolicyByName(sc.Policy, sc.K, sc.Tau, sc.Adaptive, sc.Factor)
		if perr != nil {
			t.Fatal(perr)
		}
		acfg := AsyncConfig{Config: cfg, Het: sc.Het, Policy: policy, MixingEvery: sc.MixingEvery}
		if c := sc.Churn; c.Fraction > 0 {
			acfg.Churn = GenerateChurn(sc.Nodes, c.Fraction, c.Start, c.End, c.MeanDown, c.Seed)
		}
		if w >= 2 {
			acfg.Telemetry = NewTelemetry()
		}
		header := sc.header()
		if o.replay != nil {
			rp, rerr := trace.NewReplayer(o.replay)
			if rerr != nil {
				t.Fatal(rerr)
			}
			header, acfg.Replay = o.replay.Header, rp
			acfg.Het = Heterogeneity{ComputeSpread: 9, BandwidthSpread: 2, Seed: 1234}
			acfg.Churn = GenerateChurn(sc.Nodes, 0.5, 0, 0.1, 0.05, 4321)
			acfg.DropProb = 0.3 - sc.DropProb
		}
		rec := trace.NewRecorder(header)
		var buf bytes.Buffer
		sr, serr := trace.NewStreamRecorder(&buf, header)
		if serr != nil {
			t.Fatal(serr)
		}
		// A livelocked engine (epochs rotating over a fleet that never
		// advances) records without end; fail it at 200 records per node
		// iteration, where the draws record at most about 16.
		records, budget := 0, 200*sc.Nodes*sc.Rounds
		acfg.Record = teeSink{rec, sr, sinkFunc(func(trace.Event) {
			if records++; records > budget {
				t.Fatalf("I6: the run recorded %d records without finishing (a livelock)", budget)
			}
		})}
		if o.sink != nil {
			acfg.Record = append(acfg.Record.(teeSink), o.sink)
		}
		out.res, err = (&AsyncEngine{Nodes: nodes, Topology: provider, TestSet: ds, Config: acfg}).Run()
		if cerr := sr.Close(); err == nil && cerr != nil {
			t.Fatal(cerr)
		}
		out.recording, out.trace, out.stream = rec.Trace(), rec.Trace().Events, buf.Bytes()
	}
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf []float64
	for _, nd := range inner {
		hashParams(h, nd.Model(), &buf)
	}
	out.params = h.Sum64()
	return out
}

// hashParams folds the bits of m's parameters into h.
func hashParams(h hash.Hash64, m nn.Trainable, buf *[]float64) {
	x := vec.Grow(buf, m.ParamCount())
	m.CopyParams(x)
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// header is the trace header a recording of sc carries: everything a replay
// validates its engine against.
func (sc scenario) header() trace.Header {
	meta := map[string]string{
		"epoch_sec":   strconv.FormatFloat(sc.EpochSec, 'g', -1, 64),
		"eval_sample": strconv.Itoa(sc.EvalSample),
		"eval_rotate": "1",
	}
	switch sc.Policy {
	case trace.PolicyBounded:
		meta["policy_k"], meta["policy_tau"] = strconv.Itoa(sc.K), strconv.Itoa(sc.Tau)
		meta["policy_adaptive"] = strconv.FormatBool(sc.Adaptive)
	case trace.PolicyDeadline:
		meta["policy_deadline_factor"] = strconv.FormatFloat(sc.Factor, 'g', -1, 64)
	}
	return trace.Header{Nodes: sc.Nodes, Rounds: sc.Rounds, Source: trace.SourceSim, Policy: sc.policyName(), Meta: meta}
}

// teeSink forwards every trace record to each of its sinks.
type teeSink []trace.Sink

func (s teeSink) Record(ev trace.Event) {
	for _, k := range s {
		k.Record(ev)
	}
}

// sinkFunc is a trace.Sink that calls itself on every record.
type sinkFunc func(trace.Event)

func (f sinkFunc) Record(ev trace.Event) { f(ev) }

// scheduled reports whether a record is a popped scheduler event (as
// opposed to a derived send or aggregate record).
func scheduled(k trace.Kind) bool { return k != trace.KindSend && k != trace.KindAggregate }

// resultDiff describes the first difference between two Results outside
// Telemetry, or returns nil. Floats compare by their shortest decimal form,
// which is bit equality except that every NaN equals every NaN.
func resultDiff(a, b *Result) error {
	if len(a.Rounds) != len(b.Rounds) {
		return fmt.Errorf("%d rows vs %d", len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		if x, y := fmt.Sprintf("%+v", a.Rounds[i]), fmt.Sprintf("%+v", b.Rounds[i]); x != y {
			return fmt.Errorf("row %d:\n %s\n %s", i, x, y)
		}
	}
	ca, cb := *a, *b
	ca.Rounds, cb.Rounds, ca.Telemetry, cb.Telemetry = nil, nil, nil, nil
	if x, y := fmt.Sprintf("%+v", ca), fmt.Sprintf("%+v", cb); x != y {
		return fmt.Errorf("result:\n %s\n %s", x, y)
	}
	return nil
}

// traceDiff describes the first difference between two recordings.
func traceDiff(a, b []trace.Event) error {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			var got any = "nothing"
			if i < len(b) {
				got = b[i]
			}
			return fmt.Errorf("record %d of %d:\n %+v\n %+v", i, len(a), a[i], got)
		}
	}
	if len(b) > len(a) {
		return fmt.Errorf("%d records vs %d", len(a), len(b))
	}
	return nil
}

// withoutAlpha returns a copy of res whose rows read NaN for MeanAlpha, the
// one field a wrapped fleet changes (the engines see no *core.JWINSNode).
func withoutAlpha(res *Result) *Result {
	c := *res
	c.Rounds = append([]RoundMetrics(nil), res.Rounds...)
	for i := range c.Rounds {
		c.Rounds[i].MeanAlpha = math.NaN()
	}
	return &c
}

// contractNode checks the core.Node contract the engines promise: between a
// Share and the Aggregate that follows it the model does not change (JWINS
// transforms its model again in Aggregate instead of keeping
// DWT(x^(t,tau))), no Aggregate runs without a Share since the last one,
// aggregate iterations strictly increase, every weight row is non-negative
// and sums to 1, every message comes from a neighbour in the row, and — under
// the async engine — evaluation never reads a model whose Share ran for an
// iteration whose train-done event the loop has not popped yet (a
// speculative train the serial schedule has not reached). It forwards
// LocalStepCount, SetDecodeCache and RecyclePayload, so the time model, the
// decode cache and payload recycling are unchanged. Its plain fields are
// touched only by the node's own task chain.
type contractNode struct {
	core.Node
	i          int
	fleet      *contractFleet
	buf        []float64
	hash       uint64
	shared     bool         // a Share ran since the last Aggregate
	sharedIter atomic.Int64 // the iteration of the last Share
	lastAgg    int
	aggregates int // Aggregates checked
	missing    int // row neighbours whose message was not delivered
	err        error
}

// contractFleet wraps a fleet in contractNodes and, as the run's trace sink,
// tracks the highest train-done iteration the loop popped per node.
type contractFleet struct {
	nodes      []*contractNode
	popped     []atomic.Int64
	evalReads  atomic.Int64
	aheadReads atomic.Int64 // evaluation reads of a model trained ahead
}

func (f *contractFleet) wrap(nodes []core.Node) []core.Node {
	f.popped = make([]atomic.Int64, len(nodes))
	for i, nd := range nodes {
		f.popped[i].Store(-1)
		c := &contractNode{Node: nd, i: i, fleet: f, lastAgg: -1}
		c.sharedIter.Store(-1)
		f.nodes, nodes[i] = append(f.nodes, c), c
	}
	return nodes
}

// Record implements trace.Sink.
func (f *contractFleet) Record(ev trace.Event) {
	if ev.Kind == trace.KindTrainDone && int64(ev.Iter) > f.popped[ev.Node].Load() {
		f.popped[ev.Node].Store(int64(ev.Iter))
	}
}

func (n *contractNode) Model() nn.Trainable {
	n.fleet.evalReads.Add(1)
	if n.sharedIter.Load() > n.fleet.popped[n.i].Load() {
		n.fleet.aheadReads.Add(1)
	}
	return n.Node.Model()
}

func (n *contractNode) LocalStepCount() int { return localSteps(n.Node) }

func (n *contractNode) SetDecodeCache(c *core.DecodeCache) {
	if u, ok := n.Node.(core.DecodeCacheUser); ok {
		u.SetDecodeCache(c)
	}
}

func (n *contractNode) RecyclePayload(p []byte) {
	n.Node.(core.PayloadRecycler).RecyclePayload(p)
}

// paramHash is FNV-1a over the bits of the model's parameters.
func (n *contractNode) paramHash() uint64 {
	h := fnv.New64a()
	hashParams(h, n.Node.Model(), &n.buf)
	return h.Sum64()
}

func (n *contractNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	p, bd, err := n.Node.Share(round)
	n.hash, n.shared = n.paramHash(), true
	n.sharedIter.Store(int64(round))
	return p, bd, err
}

func (n *contractNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	if n.err == nil {
		n.err = n.check(round, w, msgs)
	}
	n.shared, n.lastAgg = false, round
	n.aggregates++
	n.missing += len(w.Neighbor) - len(msgs)
	return n.Node.Aggregate(round, w, msgs)
}

// check holds one Aggregate call to the contract.
func (n *contractNode) check(round int, w topology.Weights, msgs map[int][]byte) error {
	sum := w.Self
	for _, v := range w.Neighbor {
		if v < 0 {
			return fmt.Errorf("round %d: negative neighbour weight %v", round, v)
		}
		sum += v
	}
	for from := range msgs {
		if _, ok := w.Neighbor[from]; !ok {
			return fmt.Errorf("round %d: a message from %d, outside the weight row", round, from)
		}
	}
	switch {
	case !n.shared:
		return fmt.Errorf("round %d: Aggregate with no Share since the last one", round)
	case n.paramHash() != n.hash:
		return fmt.Errorf("round %d: the model changed between Share and Aggregate", round)
	case round <= n.lastAgg:
		return fmt.Errorf("round %d: aggregate after round %d", round, n.lastAgg)
	case w.Self < 0 || math.Abs(sum-1) > 1e-12:
		return fmt.Errorf("round %d: weight row self %v sums to %v", round, w.Self, sum)
	}
	return nil
}

// TestEngineProperties checks the invariants I1–I8 (see the top of this
// file) on every regression row and on the seeded draws, logs what
// the draws covered, and fails if a policy, algorithm or topology mode was
// never drawn, no width-2 run of some policy committed a speculative train,
// or no draw checked I8.
func TestEngineProperties(t *testing.T) {
	// cov counts, across the rows and draws, what was drawn and what the
	// engines did with it.
	cov := map[string]int{}
	// Rows run grouped by the part of their name before the first "/", so
	// each group (parallelism, replay, contract, …) is a subtest of its own.
	var groups []string
	members := map[string][]int{}
	for i, r := range regressionScenarios {
		g, _, _ := strings.Cut(r.name, "/")
		if _, ok := members[g]; !ok {
			groups = append(groups, g)
		}
		members[g] = append(members[g], i)
	}
	t.Run("rows", func(t *testing.T) {
		for _, g := range groups {
			idx := members[g]
			t.Run(g, func(t *testing.T) {
				for _, i := range idx {
					_, leaf, grouped := strings.Cut(regressionScenarios[i].name, "/")
					sc := regressionScenarios[i].sc
					if !grouped {
						checkScenario(t, sc, cov)
						continue
					}
					t.Run(leaf, func(t *testing.T) { checkScenario(t, sc, cov) })
				}
			})
		}
	})
	draws := propertyDraws
	if raceEnabled {
		draws = raceDraws
	}
	t.Run("draws", func(t *testing.T) {
		for seed := uint64(1); seed <= uint64(draws); seed++ {
			sc := drawScenario(seed)
			t.Run(fmt.Sprintf("seed-%03d", seed), func(t *testing.T) { checkScenario(t, sc, cov) })
		}
	})
	keys := make([]string, 0, len(cov))
	for k := range cov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&table, "\n  %-40s %6d", k, cov[k])
	}
	t.Logf("coverage over %d rows and %d draws:%s", len(regressionScenarios), draws, table.String())
	required := []string{"engine/sync", "engine/async", "I8 checked", "topology/static", "topology/static+epochs",
		"topology/dynamic+epochs", "topology/sync-static", "topology/sync-dynamic"}
	for _, a := range algoNames {
		required = append(required, "algo/"+a)
	}
	for _, p := range []string{trace.PolicyBarrier, trace.PolicyGossip, trace.PolicyBounded, trace.PolicyDeadline} {
		required = append(required, "policy/"+p, "speculative trains (width 2)/"+p)
	}
	var never []string
	for _, k := range required {
		if cov[k] == 0 {
			never = append(never, k)
		}
	}
	if len(never) > 0 && !t.Failed() {
		t.Fatalf("vacuous: never happened across the draws: %s", strings.Join(never, ", "))
	}
}

// checkScenario runs sc at every width, replayed and wrapped, and holds the
// runs to I1–I8. On failure it prints sc as a Go literal.
func checkScenario(t *testing.T, sc scenario, cov map[string]int) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("failing scenario (add it to regressionScenarios):\n%#v", sc)
		}
	})
	widths := append([]int{1}, parallelismLevels()...)
	runs := make([]*outcome, len(widths))
	for k, w := range widths {
		runs[k] = execute(t, sc, w, runOpts{})
	}
	ref := runs[0]

	// I1 serial ≡ parallel, I3 streamed ≡ in-memory.
	for k, run := range runs {
		if k > 0 {
			if err := traceDiff(ref.trace, run.trace); err != nil {
				t.Fatalf("I1: width %d recorded another trace: %v", widths[k], err)
			}
			if err := resultDiff(ref.res, run.res); err != nil {
				t.Fatalf("I1: width %d reported another result: %v", widths[k], err)
			}
			if !sc.Async && run.params != ref.params {
				t.Fatalf("I1: width %d left other final parameters", widths[k])
			}
		}
		if sc.Async {
			var buf bytes.Buffer
			if err := trace.Write(&buf, run.recording); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(run.stream, buf.Bytes()) {
				t.Fatalf("I3: width %d streamed %d bytes, trace.Write of its recording %d", widths[k], len(run.stream), buf.Len())
			}
		}
	}
	res := ref.res

	// I4 ledger conservation.
	for _, rm := range res.Rounds {
		if rm.CumModelBytes+rm.CumMetaBytes != rm.CumTotalBytes {
			t.Fatalf("I4: row %d splits %d bytes into %d model + %d meta", rm.Round, rm.CumTotalBytes, rm.CumModelBytes, rm.CumMetaBytes)
		}
	}
	if n := len(res.Rounds); n > 0 && !sc.Async && res.Rounds[n-1].CumTotalBytes != res.TotalBytes {
		t.Fatalf("I4: last row has %d bytes, the result %d", res.Rounds[n-1].CumTotalBytes, res.TotalBytes)
	}
	if sc.Async {
		var total, model, meta int64
		for _, ev := range ref.trace {
			if ev.Kind == trace.KindSend {
				total, model, meta = total+int64(ev.Bytes), model+int64(ev.ModelBytes), meta+int64(ev.MetaBytes)
			}
		}
		if total != res.TotalBytes || model != res.ModelBytes || meta != res.MetaBytes {
			t.Fatalf("I4: send records sum to (%d, %d, %d) bytes, the result says (%d, %d, %d)",
				total, model, meta, res.TotalBytes, res.ModelBytes, res.MetaBytes)
		}
	}

	// I5 causality, and an epoch's state sync runs both ways: its sends
	// follow the epoch record at its time, and a fresh edge that carries
	// i's last broadcast to j carries j's to i too whenever j is live and
	// has sent before. Under the barrier a joiner forgets what it heard
	// before it left, so its first aggregate follows an arrival, since the
	// join, from every node that synced it there and is still its live
	// neighbour (joinWait; a rotation may sever the edge, so it clears).
	type msg struct {
		from, to, iter int
		dropped        bool
	}
	inFlight := map[msg]int{}
	kinds := map[trace.Kind]int{}
	droppedSends := 0
	lastAgg := map[int]int{}
	live, hasSent := make([]bool, sc.Nodes), make([]bool, sc.Nodes)
	for i := range live {
		live[i] = true
	}
	joinWait := map[int]map[int]bool{}
	for i, ev := range ref.trace {
		kinds[ev.Kind]++
		switch ev.Kind {
		case trace.KindLeave, trace.KindJoin:
			live[ev.Node] = ev.Kind == trace.KindJoin
			delete(joinWait, ev.Node)
			for _, w := range joinWait {
				delete(w, ev.Node)
			}
			if ev.Kind == trace.KindJoin && sc.Async && sc.policyName() == trace.PolicyBarrier {
				w := map[int]bool{}
				for _, s := range ref.trace[i+1:] {
					if s.Kind != trace.KindSend || s.Time != ev.Time {
						break
					}
					w[s.Node] = true
				}
				joinWait[ev.Node] = w
			}
		case trace.KindEpoch:
			clear(joinWait)
			synced := map[[2]int]bool{}
			for _, s := range ref.trace[i+1:] {
				if s.Kind != trace.KindSend || s.Time != ev.Time {
					break
				}
				synced[[2]int{s.Node, s.Peer}] = true
			}
			for e := range synced {
				if live[e[1]] && hasSent[e[1]] && !synced[[2]int{e[1], e[0]}] {
					t.Fatalf("I5: record %d, epoch %d syncs node %d to %d but not back", i, ev.Iter, e[0], e[1])
				}
			}
		case trace.KindSend:
			hasSent[ev.Node] = true
			inFlight[msg{ev.Node, ev.Peer, ev.Iter, ev.Dropped}]++
			if ev.Dropped {
				droppedSends++
			}
		case trace.KindArrival:
			k := msg{ev.Peer, ev.Node, ev.Iter, ev.Dropped}
			if inFlight[k] == 0 {
				t.Fatalf("I5: record %d, an arrival %+v without a send before it", i, ev)
			}
			inFlight[k]--
			delete(joinWait[ev.Node], ev.Peer)
		case trace.KindAggregate:
			if w := joinWait[ev.Node]; len(w) > 0 {
				t.Fatalf("I5: record %d, node %d aggregates iteration %d after its join without hearing from %v", i, ev.Node, ev.Iter, w)
			}
			delete(joinWait, ev.Node)
			// I6: each node's aggregate iterations strictly increase.
			if last, ok := lastAgg[ev.Node]; ok && ev.Iter <= last {
				t.Fatalf("I6: record %d, node %d aggregates iteration %d after %d", i, ev.Node, ev.Iter, last)
			}
			lastAgg[ev.Node] = ev.Iter
		}
	}

	// I6 progress.
	if res.RoundsToTarget < 0 && len(res.Rounds) != sc.Rounds {
		t.Fatalf("I6: the run stalled after %d of %d rows", len(res.Rounds), sc.Rounds)
	}
	for i, rm := range res.Rounds {
		if rm.Round != i {
			t.Fatalf("I6: row %d is numbered %d", i, rm.Round)
		}
		if i > 0 && (rm.SimTime < res.Rounds[i-1].SimTime || rm.CumTotalBytes < res.Rounds[i-1].CumTotalBytes) {
			t.Fatalf("I6: row %d goes back to (%v s, %d bytes) from (%v s, %d bytes)", i,
				rm.SimTime, rm.CumTotalBytes, res.Rounds[i-1].SimTime, res.Rounds[i-1].CumTotalBytes)
		}
	}

	// I2 record ≡ replay.
	if sc.Async {
		recorded, err := trace.Read(bytes.NewReader(ref.stream))
		if err != nil {
			t.Fatal(err)
		}
		rep := execute(t, sc, 2, runOpts{replay: recorded})
		if err := traceDiff(ref.trace, rep.trace); err != nil {
			t.Fatalf("I2: the replay recorded another trace: %v", err)
		}
		if err := resultDiff(res, rep.res); err != nil {
			t.Fatalf("I2: the replay reported another result: %v", err)
		}
	}

	// I7 node contract, at width 2.
	fleet := &contractFleet{}
	got := execute(t, sc, 2, runOpts{wrap: fleet.wrap, sink: fleet})
	if sc.Async && fleet.aheadReads.Load() > 0 {
		t.Fatalf("I7: %d of %d evaluated models were trained ahead of the schedule", fleet.aheadReads.Load(), fleet.evalReads.Load())
	}
	aggregates, missing := 0, 0
	for i, c := range fleet.nodes {
		if c.err != nil {
			t.Fatalf("I7: node %d: %v", i, c.err)
		}
		aggregates, missing = aggregates+c.aggregates, missing+c.missing
	}
	if aggregates == 0 {
		t.Fatal("I7: no Aggregate ran")
	}
	if err := traceDiff(ref.trace, got.trace); err != nil {
		t.Fatalf("I7: the wrapped fleet recorded another trace: %v", err)
	}
	if err := resultDiff(withoutAlpha(res), withoutAlpha(got.res)); err != nil {
		t.Fatalf("I7: the wrapped fleet reported another result: %v", err)
	}

	// I8 degenerate parity. Bytes agree exactly, losses to rounding: the
	// async engine sums a row's losses in train-done order, the sync
	// engine in node order.
	if sc.degenerate() {
		syncSc := sc
		syncSc.Async = false
		syncRes := execute(t, syncSc, 1, runOpts{}).res
		for i, a := range res.Rounds {
			s := syncRes.Rounds[i]
			if a.CumTotalBytes != s.CumTotalBytes || a.CumModelBytes != s.CumModelBytes || a.CumMetaBytes != s.CumMetaBytes ||
				math.Abs(a.TrainLoss-s.TrainLoss) > 1e-9*(1+math.Abs(s.TrainLoss)) {
				t.Fatalf("I8: row %d: async %+v, sync %+v", i, a, s)
			}
		}
		cov["I8 checked"]++
	}

	// Vacuity: what the draw promises must have happened.
	switch {
	case sc.Churn.Fraction > 0 && kinds[trace.KindLeave] == 0:
		t.Fatal("vacuous: a churn draw saw no leave")
	case sc.DropProb > 0 && sc.Async && droppedSends == 0:
		t.Fatal("vacuous: a drop draw dropped no send")
	case sc.DropProb > 0 && !sc.Async && missing == 0:
		t.Fatal("vacuous: a drop draw delivered every message")
	case sc.EpochSec > 0 && kinds[trace.KindEpoch] == 0:
		t.Fatal("vacuous: a rotated draw crossed no epoch")
	case sc.Policy == trace.PolicyDeadline && kinds[trace.KindDeadline] == 0:
		t.Fatal("vacuous: a deadline draw fired no deadline")
	}
	engine := "engine/sync"
	if sc.Async {
		engine = "engine/async"
		cov["policy/"+sc.policyName()]++
		cov["speculative trains (width 2)/"+sc.policyName()] += int(runs[2].res.Telemetry.Counter(MetricSpecHits))
	}
	cov[engine]++
	cov["algo/"+algoNames[sc.Algo]]++
	cov["codec/"+sc.Codec]++
	cov["topology/"+sc.topologyMode()]++
	if sc.Churn.Fraction > 0 {
		cov["leaves"] += kinds[trace.KindLeave]
	}
	cov["dropped sends"] += droppedSends
	cov["epochs"] += kinds[trace.KindEpoch]
}
