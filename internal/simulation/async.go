// async.go is the event-driven counterpart to the synchronous round engine:
// a single-threaded discrete-event scheduler in which every node carries its
// own compute/bandwidth/latency profile, trains and communicates on its own
// clock, and can leave and rejoin mid-run. It reuses the roundio layer
// (train+share, byte ledger, evaluation) so metrics are directly comparable
// with Engine, and reports the same Result/RoundMetrics series, with rows
// aligned on per-node iteration numbers instead of global rounds.
//
// Aggregation is governed by a pluggable AggregationPolicy (see policy.go).
// Four policies are supported:
//
//   - local barrier (default): a node aggregates iteration k once every live
//     neighbor's iteration-k payload has arrived (or is known dropped, or the
//     neighbor left). With homogeneous profiles and no churn this reproduces
//     the synchronous schedule exactly — the degenerate-case parity test —
//     while heterogeneous profiles turn slow nodes into stragglers that stall
//     only their own neighborhood, not the whole graph.
//
//   - gossip: a node aggregates immediately after broadcasting, using the
//     freshest payload it holds from each live neighbor. Fast nodes run
//     ahead; stale models mix in asynchronously with unbounded staleness.
//
//   - bounded staleness: a node waits until at least k live neighbors
//     delivered the current iteration, or every live neighbor is within τ
//     iterations — the semi-async middle ground, with an adaptive mode that
//     retunes τ at each topology-epoch boundary from the observed lag p95.
//
//   - straggler-dropping deadline: a barrier with a simulated-time deadline
//     derived from the node's own nominal round length; late neighbors are
//     dropped from the merge and counted in the drop-rate metrics. Deadline
//     events are recorded in traces and consumed verbatim on replay, so the
//     record→replay byte-parity guarantee holds for every policy.
//
// Churn is a seeded trace of leave/join events. A leaver keeps its model; on
// rejoin its iteration counter fast-forwards to the run's emitted-row floor,
// so it resumes at the current global position with stale parameters — the
// scenario behind the paper's claim that partial-sharing averaging is
// "flexible to nodes leaving and joining" while CHOCO's error-feedback
// replicas desynchronize.
//
// The communication graph is driven through a topology.EpochProvider. A
// plain Provider is wrapped in one that never rotates, so it is pinned to its
// round-0 graph and only filtered for liveness (the static setting); an
// EpochProvider with a positive epoch length also rotates the graph on
// simulated-time epochs: the scheduler processes an EventEpoch at each
// boundary, live nodes push their cached broadcast over every fresh edge
// (the state sync that keeps barriers deadlock-free across rotations),
// mailbox entries of severed senders are pruned, and the new epoch's
// mixing quality (spectral gap, neighbor turnover) lands in the emitted
// rows. Epoch boundaries are recorded in traces and replayed from them, so
// rotated runs keep the record→replay byte-parity guarantee.
package simulation

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// Typed configuration errors; match with errors.Is.
var (
	// ErrReplayConfig rejects a replay whose engine configuration cannot
	// reproduce the recorded schedule (e.g. a mismatched epoch length).
	ErrReplayConfig = errors.New("simulation: replay configuration mismatch")
)

// nodeProfile is one node's hardware profile in the simulated-time model.
type nodeProfile struct {
	// computeSecPerStep is the duration of one local SGD step.
	computeSecPerStep float64
	// bandwidthBytesPerSec is the node's uplink; neighbor copies serialize
	// through it.
	bandwidthBytesPerSec float64
	// latencySec is the one-way propagation delay added to every message.
	latencySec float64
}

// Heterogeneity draws per-node profiles around the base time model using
// independent lognormal multipliers (median 1), the standard straggler model:
// most nodes sit near the base, a heavy tail is markedly slower.
type Heterogeneity struct {
	// ComputeSpread is the lognormal sigma for compute time (0 = homogeneous).
	ComputeSpread float64
	// BandwidthSpread is the lognormal sigma for uplink bandwidth.
	BandwidthSpread float64
	// LatencySpread is the lognormal sigma for latency.
	LatencySpread float64
	// Seed drives the draws (default 0x686574, "het").
	Seed uint64
}

// sampleProfiles draws n node profiles around the base time model. With a
// zero-valued Heterogeneity every profile equals the base exactly.
func sampleProfiles(n int, het Heterogeneity) []nodeProfile {
	seed := het.Seed
	if seed == 0 {
		seed = 0x686574
	}
	rng := vec.NewRNG(seed)
	out := make([]nodeProfile, n)
	for i := range out {
		out[i] = nodeProfile{
			computeSecPerStep:    computeSecPerStep * logNormal(rng, het.ComputeSpread),
			bandwidthBytesPerSec: bandwidthBytesPerSec / logNormal(rng, het.BandwidthSpread),
			latencySec:           latencySec * logNormal(rng, het.LatencySpread),
		}
	}
	return out
}

// logNormal returns exp(sigma * N(0,1)), drawing exactly one deviate even
// when sigma is zero so profiles stay stable as spreads are toggled.
func logNormal(rng *vec.RNG, sigma float64) float64 {
	z := rng.NormFloat64()
	if sigma == 0 {
		return 1
	}
	return math.Exp(sigma * z)
}

// NominalRoundSec estimates one synchronous round's duration under the base
// time model: local compute, one uplink's serialization of degree payload
// copies, and latency. Callers use it to place churn traces in absolute
// simulated time without running the schedule first.
func (Config) NominalRoundSec(steps, payloadBytes, degree int) float64 {
	return float64(steps)*computeSecPerStep +
		float64(degree*(payloadBytes+frameOverhead))/bandwidthBytesPerSec +
		latencySec
}

// ChurnEvent is one entry of a churn trace.
type ChurnEvent struct {
	// Time is the simulated timestamp at which the change applies.
	Time float64
	// Node is the affected node.
	Node int
	// Join is true for a rejoin, false for a departure.
	Join bool
}

// GenerateChurn builds a seeded trace in which fraction of the n nodes leave
// once at a uniform time in [start, end) and rejoin after a downtime of
// meanDown*(0.5+U[0,1)). Rejoin times may exceed end; the run keeps
// processing churn until every node's iteration budget is met.
func GenerateChurn(n int, fraction, start, end, meanDown float64, seed uint64) []ChurnEvent {
	k := int(fraction*float64(n) + 0.5)
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	rng := vec.NewRNG(seed ^ 0x636875726e) // "churn"
	victims := rng.SampleWithoutReplacement(n, k)
	out := make([]ChurnEvent, 0, 2*k)
	for _, node := range victims {
		leave := start + rng.Float64()*(end-start)
		down := meanDown * (0.5 + rng.Float64())
		out = append(out,
			ChurnEvent{Time: leave, Node: node, Join: false},
			ChurnEvent{Time: leave + down, Node: node, Join: true},
		)
	}
	return out
}

// AsyncConfig extends the base Config with the event-driven knobs. The
// embedded Config's Rounds field becomes the per-node iteration budget;
// DropProb drops individual messages in flight.
type AsyncConfig struct {
	Config

	// Het draws the per-node hardware profiles around the base time model.
	Het Heterogeneity
	// Churn is the leave/join trace (see GenerateChurn).
	Churn []ChurnEvent
	// Policy selects the aggregation policy (see policy.go). Nil defaults to
	// BarrierPolicy.
	Policy AggregationPolicy
	// MixingEvery samples the spectral-gap computation, which is O(n·d) per
	// power iteration and would otherwise sit on the 1024-node critical path
	// at every rotation: 0 or 1 computes the gap at every epoch boundary,
	// k > 1 only at epochs whose index is a multiple of k, negative never.
	// Skipped epochs report NaN in the rows' SpectralGap column; the Result
	// aggregates cover sampled epochs only. Neighbor turnover (O(edges)) is
	// always reported.
	MixingEvery int
	// Telemetry, if set, streams runtime metrics (queue depth, barrier wait,
	// speculation hit rate, byte counters, ...) into its registry as the run
	// executes, and leaves a point-in-time snapshot in Result.Telemetry.
	// Strictly observational — the schedule is bit-identical with or without
	// it — and allocation-free on the hot path (see telemetry.go).
	Telemetry *Telemetry

	// Record, if set, captures the full executed schedule as trace events:
	// the authoritative train-done/arrival/leave/join sequence plus derived
	// send records (byte breakdowns) and aggregate records (staleness lags).
	// An in-memory trace.Recorder keeps the schedule for immediate replay; a
	// trace.StreamRecorder writes it to disk incrementally, the only option
	// whose memory stays bounded on 1024-node schedules.
	Record trace.Sink

	// Replay, if set, makes a recorded trace the authoritative schedule:
	// train-done times, arrival times, message drops, and leave/join churn
	// all come from the recording. Het/Churn/DropProb stop
	// influencing the schedule, so a run replays deterministically. A
	// Replayer is consumed by the run; build a fresh one per replay.
	Replay *trace.Replayer
}

// AsyncEngine runs one experiment under the event-driven scheduler.
type AsyncEngine struct {
	Nodes    []core.Node
	Topology topology.Provider
	TestSet  *datasets.Dataset
	Config   AsyncConfig

	// OnRound is called after each emitted iteration row.
	OnRound func(RoundMetrics)
}

// asyncNode is the scheduler's per-node state.
type asyncNode struct {
	live bool
	gen  int // bumped on leave/join; stale train-done events are discarded
	iter int // completed aggregations
	// waiting is true while the node has broadcast iteration `iter` and is
	// blocked on the aggregation policy's readiness condition. waitStart is
	// the simulated time the wait began (telemetry's barrier-wait series).
	waiting   bool
	waitStart float64
	// deadlineFired marks that the node's straggler deadline for iteration
	// `iter` was processed while it was still waiting (DeadlinePolicy only);
	// cleared when the aggregation fires or the node churns.
	deadlineFired bool
	// peers is the mailbox, one entry per sender heard from or waited on
	// since the last prune, found by a linear scan (at degree 4-6 a scan
	// beats a hash); keyed by sender since churn and rotation redraw rows.
	peers []peer
	// lastPayload/lastIter/lastBD cache the node's most recent broadcast so
	// a rejoining neighbor can pull current state (see onJoin).
	lastPayload []byte
	lastIter    int
	lastBD      codec.ByteBreakdown
}

// peer is one sender's mailbox entry: got is the highest iteration whose
// payload arrived or was known dropped (the barrier bookkeeping), box the
// payloads buffered, consumed by blocking policies up to the aggregated
// iteration; gossip keeps only the freshest.
type peer struct {
	from, got int
	box       []boxed
}

// boxed is one buffered payload and the iteration it belongs to.
type boxed struct {
	iter    int
	payload []byte
}

// peer returns sender from's mailbox entry. A sender not heard from gets an
// empty one (got -1), in a slot a prune or rejoin truncated when there is
// one, whose box capacity it keeps.
func (st *asyncNode) peer(from int) *peer {
	for k := range st.peers {
		if st.peers[k].from == from {
			return &st.peers[k]
		}
	}
	n := len(st.peers)
	st.peers = slices.Grow(st.peers, 1)[:n+1]
	p := &st.peers[n]
	p.from, p.got, p.box = from, -1, p.box[:0]
	return p
}

// keepPeers keeps the entries whose sender passes keep and truncates the rest
// in place, their payload references cleared and box capacity kept for the
// senders that take their slots.
func (st *asyncNode) keepPeers(keep func(from int) bool) {
	n := 0
	for k := range st.peers {
		if keep(st.peers[k].from) {
			st.peers[n], st.peers[k] = st.peers[k], st.peers[n]
			n++
		}
	}
	for k := n; k < len(st.peers); k++ {
		clear(st.peers[k].box)
	}
	st.peers = st.peers[:n]
}

// put buffers payload as iteration iter's, replacing an earlier one.
func (p *peer) put(iter int, payload []byte) {
	for k := range p.box {
		if p.box[k].iter == iter {
			p.box[k].payload = payload
			return
		}
	}
	p.box = append(p.box, boxed{iter, payload})
}

// consume drops the payloads at or below iteration upTo.
func (p *peer) consume(upTo int) {
	box := p.box[:0]
	for _, b := range p.box {
		if b.iter > upTo {
			box = append(box, b)
		}
	}
	clear(p.box[len(box):])
	p.box = box
}

// trainTask carries one speculatively dispatched train+share computation.
// The pool worker fills the result fields before fut completes; the event
// loop reads them only after waiting on fut at the train-done event.
type trainTask struct {
	fut     *future
	loss    float64
	payload []byte
	bd      codec.ByteBreakdown
}

// asyncRun is the mutable state of one AsyncEngine.Run.
type asyncRun struct {
	eng      *AsyncEngine
	cfg      AsyncConfig
	profiles []nodeProfile
	nodes    []asyncNode
	queue    eventQueue
	seq      int64
	now      float64
	ledger   byteLedger
	faultRNG *vec.RNG

	// Aggregation-policy state. policy is the resolved AggregationPolicy,
	// blocking its cached Blocking(); curTau is the live staleness bound
	// (BoundedStalenessPolicy — the adaptive mode retunes it at epoch
	// boundaries from the lag samples accumulated since epochLagStart).
	policy        AggregationPolicy
	blocking      bool
	curTau        int
	epochLagStart int

	// Topology state. topo serves the live-filtered graph of the current
	// epoch; epochSec > 0 enables rotation, and epoch is the index the last
	// processed EventEpoch advanced to. replayEpochs holds the recorded
	// rotations not yet scheduled (replay runs schedule them verbatim
	// instead of deriving boundaries from epochSec). nextBase draws the
	// scheduled boundary's base graph on the pool (nil: no draw yet).
	topo         *topology.EpochProvider
	epoch        int
	epochSec     float64
	replayEpochs []trace.Event
	nextBase     *future

	// Mixing instrumentation: the current epoch's spectral gap and neighbor
	// turnover (reported in every emitted row) plus run-level accumulators.
	// gapCount counts the epochs whose gap was actually computed (the
	// MixingEvery sample); curGap is NaN on skipped epochs.
	curGap      float64
	curTurnover float64
	gapSum      float64
	gapMin      float64
	gapCount    int
	turnSum     float64
	turnCount   int
	epochCount  int
	liveBuf     []bool               // scratch live mask (see liveMask)
	slem        topology.SLEMScratch // reused power-iteration buffers

	// msgsPool recycles the per-aggregation payload maps. Maps are acquired
	// on the event loop and released by the pool worker once Aggregate has
	// consumed them, so the pool is mutex-guarded; map identity never affects
	// results (nodes sort senders before merging).
	msgsPool msgsPool
	// lagScratch is the reusable staleness-sample buffer of aggregate(); its
	// contents are copied out synchronously before the next aggregation.
	lagScratch []float64

	// Worker-pool state. tails[i] is node i's most recently submitted task
	// (its per-node chain: train and aggregate strictly alternate in program
	// order); pendTrain[i] is the speculatively dispatched train+share whose
	// train-done event has not been processed yet, pointing into the
	// trainTasks slab (one reusable slot per node: a slot is rewritten only
	// after its previous result was committed at the train-done event, or
	// after the final drain). alphas[i] is the cut-off
	// committed at node i's last processed train-done — row emission must not
	// read JWINSNode.LastAlpha directly, since a speculative Share may already
	// have overwritten it ahead of the serial schedule.
	pool       *computePool
	tails      []*future
	pendTrain  []*trainTask
	trainTasks []trainTask
	alphas     []float64
	isJWINS    []bool
	// churnPending[i] holds the simulated times of node i's not-yet-processed
	// leave/join events, ascending. Speculation is suppressed while a churn
	// event could fire before the speculated train-done commits.
	churnPending [][]float64

	// dcache is the fleet-shared decoded-payload cache: a sender's first
	// broadcast is what its Share published, every later one is decoded
	// once, by its first aggregating recipient, and served by identity.
	dcache *core.DecodeCache

	// per-iteration training-loss accumulators for row emission; liveAt[k]
	// counts the live nodes whose completed-iteration count is k, which is
	// what the emission floor is read from (see minLiveIter).
	lossSum   []float64
	lossCount []int
	liveAt    []int
	emitted   int
	res       *Result
	stop      bool

	// evalSamp drives sampled rotating evaluation (nil = exact); its subsets
	// depend only on config + row index, so rows stay parallelism-invariant.
	// Speculation asks it who a row will read.
	evalSamp *evalSampler

	// trace subsystem state: recorder hook, replay oracle, staleness and
	// policy accumulators, and the count of replay lookups that found no
	// recorded event (a nonzero count on a stalled replay means config
	// mismatch).
	rec          trace.Sink
	replay       *trace.Replayer
	stale        *staleTracker
	polTrack     *policyTracker
	replayMisses int

	// telemetry: tel is nil when disabled; telWait is the per-policy
	// barrier-wait histogram resolved once at setup so the hot path touches
	// only pre-registered atomics.
	tel     *Telemetry
	telWait *metrics.Histogram
}

// Run executes the event-driven schedule and returns the collected metrics.
func (e *AsyncEngine) Run() (*Result, error) {
	cfg := e.Config
	cfg.setDefaults()
	n := len(e.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("simulation: no nodes")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("simulation: rounds must be positive")
	}
	policy := cfg.Policy
	if policy == nil {
		policy = BarrierPolicy{}
	}
	if err := policy.validate(); err != nil {
		return nil, err
	}

	r := &asyncRun{
		eng:          e,
		cfg:          cfg,
		profiles:     sampleProfiles(n, cfg.Het),
		nodes:        make([]asyncNode, n),
		lossSum:      make([]float64, cfg.Rounds),
		lossCount:    make([]int, cfg.Rounds),
		liveAt:       make([]int, cfg.Rounds+1),
		res:          &Result{RoundsToTarget: -1},
		rec:          cfg.Record,
		replay:       cfg.Replay,
		stale:        newStaleTracker(cfg.Rounds),
		polTrack:     newPolicyTracker(cfg.Rounds),
		policy:       policy,
		blocking:     policy.Blocking(),
		pool:         newComputePool(cfg.Parallelism),
		tails:        make([]*future, n),
		pendTrain:    make([]*trainTask, n),
		trainTasks:   make([]trainTask, n),
		alphas:       make([]float64, n),
		isJWINS:      make([]bool, n),
		churnPending: make([][]float64, n),
		evalSamp:     newEvalSampler(n, cfg.Config),
		dcache:       &core.DecodeCache{},
	}
	r.liveAt[0] = n
	// Registered before the pool's close, so it runs after it: no worker
	// still reads an entry when the nodes let go of the cache.
	setDecodeCache(e.Nodes, r.dcache)
	defer setDecodeCache(e.Nodes, nil)
	if bp, ok := policy.(BoundedStalenessPolicy); ok {
		r.curTau = bp.Tau
	}
	if cfg.Telemetry != nil {
		r.tel = cfg.Telemetry
		r.telWait = r.tel.waitHistogram(policy.Name())
		r.pool.telPooled = r.tel.poolTasks
		r.pool.telInline = r.tel.poolInline
	}
	// Registered before any validation early-return: the pool's workers must
	// not outlive a failed Run, nor close under a graph draw never used.
	defer r.pool.close()
	defer func() { r.nextBase.wait() }()
	tp, ok := e.Topology.(*topology.EpochProvider)
	if !ok {
		tp = topology.NewEpochProvider(e.Topology, n, 0)
	}
	// The engine owns liveness for the duration of the run; a provider
	// reused across runs must start from the all-live state.
	tp.ResetLive()
	r.topo, r.epochSec = tp, tp.EpochSec
	for i, nd := range e.Nodes {
		if _, ok := nd.(*core.JWINSNode); ok {
			r.isJWINS[i] = true
		} else {
			r.alphas[i] = math.NaN()
		}
	}
	if cfg.DropProb > 0 && r.replay == nil {
		// Under replay, drops come from the recorded arrivals instead.
		r.faultRNG = vec.NewRNG(cfg.FaultSeed ^ 0xfa017)
	}
	if r.replay != nil {
		if rn := r.replay.Header().Nodes; rn != n {
			return nil, fmt.Errorf("simulation: replay trace has %d nodes, engine has %d", rn, n)
		}
		if err := r.validateReplay(); err != nil {
			return nil, err
		}
	}
	g, w0 := r.graph()
	if g.N != n {
		return nil, fmt.Errorf("simulation: topology has %d nodes, engine has %d", g.N, n)
	}
	// Epoch 0's mixing quality (static runs report it too; their gap is then
	// constant and their turnover identically zero). Sampling off leaves NaN.
	r.epochCount = 1
	if r.mixingSampled(0) {
		r.curGap = r.slem.SpectralGap(g, w0, nil)
		r.gapSum, r.gapMin, r.gapCount = r.curGap, r.curGap, 1
	} else {
		r.curGap, r.gapMin = math.NaN(), math.NaN()
	}
	for i := range r.nodes {
		r.nodes[i] = asyncNode{live: true, lastIter: -1}
	}
	// The per-node churn calendar must exist before the first scheduleTrain:
	// speculation safety checks it. Event push order stays as before (initial
	// trains first, then churn) so same-time tie-breaking is unchanged.
	if r.replay != nil {
		for _, ev := range r.replay.Churn() {
			r.churnPending[ev.Node] = append(r.churnPending[ev.Node], ev.Time)
		}
	} else {
		for _, ch := range cfg.Churn {
			if ch.Node < 0 || ch.Node >= n {
				return nil, fmt.Errorf("simulation: churn event for node %d, engine has %d nodes", ch.Node, n)
			}
			r.churnPending[ch.Node] = append(r.churnPending[ch.Node], ch.Time)
		}
	}
	for i := range r.churnPending {
		sort.Float64s(r.churnPending[i])
	}
	// Seed the schedule: every node starts training at t=0; churn arrives on
	// its own clock.
	for i := 0; i < n; i++ {
		r.scheduleTrain(i)
	}
	if r.replay != nil {
		// The recorded leave/join sequence is the churn schedule.
		for _, ev := range r.replay.Churn() {
			kind := EventLeave
			if ev.Kind == trace.KindJoin {
				kind = EventJoin
			}
			r.push(Event{Time: ev.Time, Kind: kind, Node: ev.Node})
		}
	} else {
		for _, ch := range cfg.Churn {
			kind := EventLeave
			if ch.Join {
				kind = EventJoin
			}
			r.push(Event{Time: ch.Time, Kind: kind, Node: ch.Node})
		}
	}
	// Topology rotation: one boundary event outstanding at a time. Under
	// replay the recorded rotations are the schedule; otherwise the first
	// boundary lands one epoch length in, and each processed boundary pushes
	// the next.
	if r.replay != nil {
		r.replayEpochs = r.replay.Epochs()
		r.pushNextReplayEpoch()
	} else if r.epochSec > 0 {
		r.pushEpoch(r.epochSec, 1)
	}

	// The final drain is mandatory on every path out of the loop: in-flight
	// workers mutate node state, and the pool must not close under them.
	if err := r.eventLoop(); err != nil {
		r.drain() // surface the loop's error, not a downstream chain error
		return nil, err
	}
	if err := r.drain(); err != nil {
		return nil, err
	}

	if r.replay != nil && !r.stop && r.emitted < cfg.Rounds {
		return nil, fmt.Errorf("simulation: replay stalled at %d/%d rows (%d missed schedule lookups): trace does not match this run configuration",
			r.emitted, cfg.Rounds, r.replayMisses)
	}
	if r.rec != nil && r.emitted > 0 && r.emitted < cfg.Rounds {
		// The run stopped early (target accuracy): the trace holds only the
		// executed prefix, so the header must advertise the executed budget —
		// otherwise a replay would chase rounds that were never scheduled.
		// Sinks that cannot adjust their header (a StreamRecorder on a
		// non-seekable destination) surface the problem at their Close.
		if rs, ok := r.rec.(trace.RoundsSetter); ok {
			rs.SetRounds(r.emitted)
		}
	}
	r.res.TotalBytes, r.res.ModelBytes, r.res.MetaBytes = r.ledger.total, r.ledger.model, r.ledger.meta
	r.res.SimTime = r.now
	r.res.StaleMean, r.res.StaleMax, r.res.StaleP95 = r.stale.runStats()
	r.res.EffNeighborsMean, r.res.DropRate, r.res.LateDrops = r.polTrack.runStats()
	r.res.Epochs = r.epochCount
	if r.gapCount > 0 {
		r.res.SpectralGapMean = r.gapSum / float64(r.gapCount)
		r.res.SpectralGapMin = r.gapMin
	} else {
		r.res.SpectralGapMean, r.res.SpectralGapMin = math.NaN(), math.NaN()
	}
	if r.turnCount > 0 {
		r.res.TurnoverMean = r.turnSum / float64(r.turnCount)
	}
	if r.res.RoundsToTarget < 0 {
		r.res.BytesToTarget = r.ledger.total
		r.res.TimeToTarget = r.now
	}
	if r.tel != nil {
		// Fold the decode cache's counters in before the snapshot. Hit/miss
		// totals depend on pool interleaving, so they are telemetry only —
		// never part of a determinism comparison.
		h, m := r.dcache.Stats()
		r.tel.decodeHits.Add(h)
		r.tel.decodeMisses.Add(m)
		r.res.Telemetry = r.tel.Snapshot()
	}
	return r.res, nil
}

// eventLoop pops and processes events until the queue empties, the run
// stops, or the iteration budget is met.
func (r *asyncRun) eventLoop() error {
	for r.queue.Len() > 0 && !r.stop {
		ev := r.queue.pop()
		r.now = ev.Time
		if r.tel != nil {
			// Depth at pop, inclusive of the event just taken.
			r.tel.queueDepth.Observe(float64(r.queue.Len() + 1))
			r.tel.events[ev.Kind].Inc()
		}
		if r.rec != nil {
			if tev, ok := schedTraceEvent(&ev); ok {
				r.rec.Record(tev)
			}
		}
		var err error
		switch ev.Kind {
		case EventTrainDone:
			err = r.onTrainDone(&ev)
		case EventArrival:
			err = r.onArrival(&ev)
		case EventLeave:
			r.popChurn(ev.Node)
			err = r.onLeave(ev.Node)
		case EventJoin:
			r.popChurn(ev.Node)
			err = r.onJoin(ev.Node)
		case EventEpoch:
			err = r.onEpoch(&ev)
		case EventDeadline:
			err = r.onDeadline(&ev)
		}
		if err != nil {
			return err
		}
		if r.emitted >= r.cfg.Rounds {
			break
		}
	}
	return nil
}

// graph returns the current epoch's live-filtered graph and mixing weights.
func (r *asyncRun) graph() (*topology.Graph, []topology.Weights) {
	return r.topo.Round(r.epoch)
}

// liveMask fills and returns the scratch mask of currently live nodes.
func (r *asyncRun) liveMask() []bool {
	if r.liveBuf == nil {
		r.liveBuf = make([]bool, len(r.nodes))
	}
	for i := range r.nodes {
		r.liveBuf[i] = r.nodes[i].live
	}
	return r.liveBuf
}

// mixingSampled reports whether the spectral gap is computed for the given
// epoch under the MixingEvery cadence.
func (r *asyncRun) mixingSampled(epoch int) bool {
	k := r.cfg.MixingEvery
	if k < 0 {
		return false
	}
	if k <= 1 {
		return true
	}
	return epoch%k == 0
}

// validateReplay rejects, before any event is processed, a replay whose
// engine configuration cannot reproduce the recording: the rotation schedule
// (epoch length), the aggregation policy and its parameters (they shape the
// schedule — deadline events, waiting decisions — so a mismatch would stall
// or silently diverge), and the evaluation schedule (it never shapes events
// but does shape the emitted rows, and a replay claims row parity). Every
// value is compared only when the recording carries it: traces without a
// policy header (hand-built) skip the policy checks, traces without eval
// meta (recorded exact, or predating the sampler) the evaluation ones.
func (r *asyncRun) validateReplay() error {
	h := r.replay.Header()
	if len(r.replay.Epochs()) > 0 && r.epochSec <= 0 {
		return fmt.Errorf("%w: trace carries topology-rotation events but the engine topology never rotates; wrap it in a topology.EpochProvider with the recorded epoch length", ErrReplayConfig)
	}
	// Key and the engine's value, formatted as the recorders format it.
	checks := [][2]string{
		{"epoch_sec", fmt.Sprint(r.epochSec)},
		{"eval_sample", fmt.Sprint(r.cfg.EvalSample)},
		// The window advances every eval row; a recording that rotated
		// slower cannot be replayed row for row.
		{"eval_rotate", "1"},
	}
	if h.Policy != "" {
		if h.Policy != r.policy.Name() {
			return fmt.Errorf("%w: trace was recorded under the %q policy, engine runs %q", ErrReplayConfig, h.Policy, r.policy.Name())
		}
		switch p := r.policy.(type) {
		case BoundedStalenessPolicy:
			checks = append(checks, [2]string{"policy_k", fmt.Sprint(p.K)},
				[2]string{"policy_tau", fmt.Sprint(p.Tau)}, [2]string{"policy_adaptive", fmt.Sprint(p.AdaptiveTau)})
		case DeadlinePolicy:
			checks = append(checks, [2]string{"policy_deadline_factor", fmt.Sprint(p.Factor)})
		}
	}
	for _, c := range checks {
		s := h.Meta[c[0]]
		if s == "" {
			continue
		}
		// Compared as numbers: "0.050" and "0.05" are the same epoch length.
		rec, err := metaNumber(s)
		if err != nil {
			return fmt.Errorf("%w: trace %s %q: %v", ErrReplayConfig, c[0], s, err)
		}
		if got, _ := metaNumber(c[1]); rec != got {
			return fmt.Errorf("%w: trace was recorded with %s=%s, engine uses %s", ErrReplayConfig, c[0], s, c[1])
		}
	}
	return nil
}

// metaNumber reads a header-meta value: a number, or a boolean as 0/1.
func metaNumber(s string) (float64, error) {
	switch s {
	case "true":
		return 1, nil
	case "false":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

// pushNextReplayEpoch schedules the next recorded rotation. It is called at
// the same program points where a live run would push its own boundary (run
// start, then at each processed boundary), so tie-break sequence numbers
// line up with the recording.
func (r *asyncRun) pushNextReplayEpoch() {
	if len(r.replayEpochs) == 0 {
		return
	}
	ev := r.replayEpochs[0]
	r.replayEpochs = r.replayEpochs[1:]
	r.pushEpoch(ev.Time, ev.Iter)
}

// pushEpoch schedules the boundary into epoch e at time t. A base serving
// graphs alone (SeededDynamic) draws e's graph on the pool meanwhile, a pure
// function of (seed, e) that onEpoch waits for before querying the provider.
func (r *asyncRun) pushEpoch(t float64, e int) {
	r.push(Event{Time: t, Kind: EventEpoch, Iter: e})
	if gp, ok := r.topo.Base.(interface{ Graph(int) *topology.Graph }); ok && r.epochSec > 0 {
		r.nextBase = r.pool.submit(nil, -1, func() error {
			gp.Graph(e)
			return nil
		})
	}
}

// onEpoch rotates the topology: the provider serves epoch ev.Iter from here
// on (its base graph drawn on the pool since the boundary was scheduled),
// mailbox entries of severed senders are pruned, and every live node pushes
// its cached broadcast over each fresh edge. That state
// sync keeps the local barrier deadlock-free: a node waiting on a brand-new
// neighbor would otherwise block on an iteration payload that was broadcast
// before the edge existed. The re-sent payload carries the sender's last
// iteration, which is at least any iteration a waiting neighbor can be
// blocked on, so `got` bookkeeping advances and barriers re-fire.
func (r *asyncRun) onEpoch(ev *Event) error {
	if err := r.nextBase.wait(); err != nil {
		return fmt.Errorf("epoch %d graph: %w", ev.Iter, err)
	}
	if ev.Iter <= r.epoch {
		// Defensive: a stale or duplicate boundary (possible only in a
		// hand-edited replay trace) is a no-op — but it must still consume
		// its slot in the recorded rotation schedule, or every later
		// rotation would be silently dropped.
		if r.replay != nil {
			r.pushNextReplayEpoch()
		}
		return nil
	}
	gOld, _ := r.graph()
	r.epoch = ev.Iter
	gNew, wNew := r.graph()

	// Mixing instrumentation for the epoch just entered, restricted to live
	// nodes (a dead node's isolated row would pin the SLEM at 1). The gap is
	// only computed on MixingEvery-sampled epochs (NaN otherwise); turnover
	// is O(edges) and always reported.
	r.epochCount++
	if r.mixingSampled(r.epoch) {
		r.curGap = r.slem.SpectralGap(gNew, wNew, r.liveMask())
		r.gapSum += r.curGap
		r.gapCount++
		if math.IsNaN(r.gapMin) || r.curGap < r.gapMin {
			r.gapMin = r.curGap
		}
	} else {
		r.curGap = math.NaN()
	}
	r.curTurnover = topology.EdgeTurnover(gOld, gNew)
	r.turnSum += r.curTurnover
	r.turnCount++

	// Adaptive-τ retune: the staleness bound for the new epoch is the p95 of
	// the lag samples observed since the previous boundary (floored at 1 so
	// the policy never degenerates to a strict barrier mid-run). Lags are a
	// deterministic function of the schedule, so recorded and replayed runs
	// retune identically. Epochs without samples keep the current bound.
	if bp, ok := r.policy.(BoundedStalenessPolicy); ok && bp.AdaptiveTau {
		if fresh := r.stale.all[r.epochLagStart:]; len(fresh) > 0 {
			tau := int(math.Ceil(trace.Quantile(fresh, 0.95)))
			if tau < 1 {
				tau = 1
			}
			r.curTau = tau
		}
		r.epochLagStart = len(r.stale.all)
	}

	// Prune the mailboxes: payloads from senders that are no longer
	// neighbors can never satisfy a barrier and would otherwise accumulate
	// across rotations (the 384-node memory concern). The `got` bookkeeping
	// of a severed edge goes too: if the edge reappears in a later epoch,
	// the barrier must wait for that boundary's state-sync arrival instead
	// of firing on stale evidence from a past epoch and aggregating without
	// the re-appeared neighbor's payload.
	for i := range r.nodes {
		r.nodes[i].keepPeers(func(j int) bool { return gNew.HasEdge(i, j) })
	}

	// State sync over fresh edges, serialized through each sender's uplink
	// like a broadcast. Both endpoints push, so a lagging node also receives
	// its new neighbor's latest state.
	for i := range r.nodes {
		st := &r.nodes[i]
		if !st.live || st.lastIter < 0 {
			continue
		}
		txEnd := 0.0
		for _, j := range gNew.Neighbors(i) {
			if gOld.HasEdge(i, j) {
				continue
			}
			txEnd += float64(len(st.lastPayload)+frameOverhead) / r.profiles[i].bandwidthBytesPerSec
			r.sendOne(i, j, st.lastIter, st.lastPayload, st.lastBD, txEnd, false)
		}
	}
	if err := r.recheckAll(); err != nil {
		return err
	}
	// Schedule the next boundary only while other events remain: an
	// otherwise-dead run (everyone left for good) must drain, not rotate an
	// empty graph forever. Replay consumes the recorded schedule instead.
	if r.replay != nil {
		r.pushNextReplayEpoch()
	} else if r.epochSec > 0 && !r.stop && r.queue.Len() > 0 {
		r.pushEpoch(float64(r.epoch+1)*r.epochSec, r.epoch+1)
	}
	return nil
}

// popChurn retires the front of node i's churn calendar as its leave/join
// event is processed (liveness no-ops still consume their calendar entry).
func (r *asyncRun) popChurn(i int) {
	if len(r.churnPending[i]) > 0 {
		r.churnPending[i] = r.churnPending[i][1:]
	}
}

// drain waits for every node's task chain to finish and returns the
// lowest-node-index error. It must run before Run returns so no pool worker
// keeps mutating node state after the caller regains control.
func (r *asyncRun) drain() error {
	var first error
	for i := range r.tails {
		if err := r.tails[i].wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// specSafe reports whether node i's train+share for the iteration starting
// now may run ahead of its train-done event (scheduled at time t) without
// becoming observable before the serial schedule would produce it. Two
// windows forbid it:
//
//   - a pending leave/join for node i at or before t would supersede the
//     event, and serial execution then never trains (the node's model,
//     loader, and RNG must stay untouched);
//   - an evaluation row below the train's iteration that scores node i could
//     be emitted while the task is in flight, and would read a model the
//     serial schedule has not trained yet. Exact evaluation scores everyone;
//     sampled evaluation only its subset, and a row that does
//     not read the node cannot observe its train. Rows at or above the
//     iteration cannot fire first: they need the node itself to advance,
//     which needs this train to commit.
func (r *asyncRun) specSafe(i int, t float64) bool {
	if pend := r.churnPending[i]; len(pend) > 0 && pend[0] <= t {
		return false
	}
	for k := r.emitted; k < r.nodes[i].iter; k++ {
		if r.evalRow(k) && r.evalReads(k, i) {
			return false
		}
	}
	return true
}

// evalRow reports whether row k triggers an evaluation (the EvalEvery
// cadence or the final row).
func (r *asyncRun) evalRow(k int) bool {
	return k%r.cfg.EvalEvery == r.cfg.EvalEvery-1 || k == r.cfg.Rounds-1
}

// evalReads reports whether evaluation row k scores node i's model.
func (r *asyncRun) evalReads(k, i int) bool {
	return r.evalSamp == nil || r.evalSamp.samples(k, i)
}

// push assigns the next sequence number and enqueues ev.
func (r *asyncRun) push(ev Event) {
	ev.Seq = r.seq
	r.seq++
	r.queue.push(ev)
}

// scheduleTrain enqueues node i's next train-done event under its profile —
// or, under replay, at the recorded completion time. A missing recording
// means the original event was superseded by churn before it mattered;
// skipping it is safe (the node's leave is on the schedule), and a stalled
// replay surfaces the miss count as a config-mismatch error.
func (r *asyncRun) scheduleTrain(i int) {
	st := &r.nodes[i]
	t := r.now + float64(localSteps(r.eng.Nodes[i]))*r.profiles[i].computeSecPerStep
	if r.replay != nil {
		rt, ok := r.replay.TrainDoneTime(i, st.iter)
		if !ok {
			r.replayMisses++
			return
		}
		// Clamp: a recorded time earlier than now must not move simulated
		// time backward.
		t = math.Max(rt, r.now)
	}
	r.push(Event{
		Time: t, Kind: EventTrainDone,
		Node: i, Iter: st.iter, gen: st.gen,
	})
	// Speculative dispatch: node i's state is final for this training phase
	// (nothing between here and the train-done event mutates it), so the
	// compute can start on the pool now and overlap other nodes' work. The
	// event loop commits the result — ledger, broadcast, trace — only when
	// the event fires, keeping the schedule bit-identical to serial. The
	// node's trainTask slot is reusable here: its previous result was
	// committed at the preceding train-done event (commit precedes the
	// aggregate that led to this scheduleTrain).
	if r.specSafe(i, t) {
		r.dispatchSpec(i, st.iter)
	}
}

// dispatchSpec submits node i's speculative train+share for iteration iter
// on the pool, chained after the node's previous task (see scheduleTrain).
func (r *asyncRun) dispatchSpec(i, iter int) {
	tt := &r.trainTasks[i]
	tt.loss, tt.payload, tt.bd = 0, nil, codec.ByteBreakdown{}
	tt.fut = r.pool.submit(r.tails[i], i, func() error {
		loss, payload, bd, err := trainShare(r.eng.Nodes[i], iter)
		if err != nil {
			return fmt.Errorf("node %d share: %w", i, err)
		}
		tt.loss, tt.payload, tt.bd = loss, payload, bd
		return nil
	})
	r.pendTrain[i] = tt
	r.tails[i] = tt.fut
}

// onTrainDone runs the node's local steps and broadcast, then either blocks
// on the aggregation policy's readiness condition or (gossip) aggregates
// immediately. Under the deadline policy it also schedules the iteration's
// straggler deadline.
func (r *asyncRun) onTrainDone(ev *Event) error {
	i := ev.Node
	st := &r.nodes[i]
	if !st.live || ev.gen != st.gen || ev.Iter != st.iter {
		return nil // superseded by churn; speculation is suppressed for these
	}
	var (
		loss    float64
		payload []byte
		bd      codec.ByteBreakdown
	)
	if tt := r.pendTrain[i]; tt != nil {
		// Commit the speculative result at exactly the serial execution point.
		r.pendTrain[i] = nil
		if err := tt.fut.wait(); err != nil {
			return err
		}
		loss, payload, bd = tt.loss, tt.payload, tt.bd
		if r.tel != nil {
			r.tel.specHits.Inc()
		}
	} else {
		// Speculation was unsafe (churn, or an evaluation row that scores this
		// node): run inline, after any still-running aggregate of this node.
		if r.tel != nil {
			r.tel.specMisses.Inc()
		}
		if err := r.tails[i].wait(); err != nil {
			return err
		}
		// Under the pool's panic recovery, like the dispatch it stands in for.
		if err := runTask(i, func() (err error) {
			loss, payload, bd, err = trainShare(r.eng.Nodes[i], st.iter)
			return err
		}); err != nil {
			return fmt.Errorf("node %d share: %w", i, err)
		}
	}
	if r.isJWINS[i] {
		// Commit the sampled cut-off for row emission; LastAlpha itself may
		// run ahead under speculation.
		r.alphas[i] = r.eng.Nodes[i].(*core.JWINSNode).LastAlpha
	}
	if st.iter < len(r.lossSum) && !math.IsNaN(loss) {
		r.lossSum[st.iter] += loss
		r.lossCount[st.iter]++
	}
	r.broadcast(i, st.iter, payload, bd)
	if !r.blocking {
		return r.aggregate(i)
	}
	st.waiting = true
	st.waitStart = r.now
	if dp, ok := r.policy.(DeadlinePolicy); ok {
		// The deadline is pushed before readiness is checked so its schedule
		// slot exists even when every payload already arrived (the stale
		// event is discarded at pop) — recording and replay then agree on
		// the event sequence. Under replay the recorded firing time is the
		// schedule; a deadline the recording never popped is not re-created.
		if r.replay != nil {
			if t, ok := r.replay.NextDeadline(i, st.iter); ok {
				r.push(Event{Time: math.Max(t, r.now), Kind: EventDeadline, Node: i, Iter: st.iter, gen: st.gen})
			}
		} else {
			t := r.now + dp.Factor*r.nominalRoundFor(i, len(payload))
			r.push(Event{Time: t, Kind: EventDeadline, Node: i, Iter: st.iter, gen: st.gen})
		}
	}
	return r.checkReady(i)
}

// nominalRoundFor estimates node i's own nominal round duration under its
// hardware profile and the current graph degree — the deadline policy's
// time base (compare Config.NominalRoundSec, which uses the base profile).
func (r *asyncRun) nominalRoundFor(i, payloadBytes int) float64 {
	p := r.profiles[i]
	g, _ := r.graph()
	return float64(localSteps(r.eng.Nodes[i]))*p.computeSecPerStep +
		float64(g.Degree(i)*(payloadBytes+frameOverhead))/p.bandwidthBytesPerSec +
		p.latencySec
}

// onDeadline fires a node's straggler deadline: if the node is still waiting
// on the same iteration (and generation), the deadline unlocks the policy's
// readiness condition and the node aggregates whatever arrived. Anything else
// — the node aggregated early, churned, or advanced — makes the event stale
// and it is discarded.
func (r *asyncRun) onDeadline(ev *Event) error {
	st := &r.nodes[ev.Node]
	if !st.live || ev.gen != st.gen || ev.Iter != st.iter || !st.waiting {
		return nil
	}
	st.deadlineFired = true
	return r.checkReady(ev.Node)
}

// broadcast serializes copies of payload through node i's uplink to every
// live neighbor, charging the byte ledger per copy (drops included: the
// sender pays, the receiver only learns the message is gone). The payload is
// cached so rejoining neighbors can pull it later.
func (r *asyncRun) broadcast(i, iter int, payload []byte, bd codec.ByteBreakdown) {
	st := &r.nodes[i]
	st.lastPayload, st.lastIter, st.lastBD = payload, iter, bd
	g, _ := r.graph()
	txEnd := 0.0
	for _, j := range g.Neighbors(i) {
		txEnd += float64(len(payload)+frameOverhead) / r.profiles[i].bandwidthBytesPerSec
		dropped := r.faultRNG != nil && r.faultRNG.Float64() < r.cfg.DropProb
		r.sendOne(i, j, iter, payload, bd, txEnd, dropped)
	}
}

// sendOne schedules one delivery from i to j, txDelay seconds of uplink
// serialization after now, and charges the ledger. Under replay the recorded
// schedule decides everything: the send record carries the drop flag, the
// arrival record the delivery time — and a send whose arrival was never
// recorded was still in flight when the recorded run ended, so it is paid
// for but never delivered, exactly like the original.
func (r *asyncRun) sendOne(i, j, iter int, payload []byte, bd codec.ByteBreakdown, txDelay float64, dropped bool) {
	arriveAt := r.now + txDelay + r.profiles[i].latencySec
	deliver := true
	if r.replay != nil {
		at, d, ok := r.replay.NextArrival(i, j, iter)
		if sd, sok := r.replay.NextSend(i, j, iter); sok {
			dropped = sd
		} else if ok {
			dropped = d
		} else {
			// Neither a send nor an arrival on record: count the miss; a
			// stalled replay reports it as a config mismatch.
			r.replayMisses++
		}
		if ok {
			// Clamp: a recorded arrival earlier than now must not move
			// simulated time back.
			arriveAt = math.Max(at, r.now)
		} else {
			deliver = false
		}
	}
	sent := r.ledger.addSend(bd, len(payload), 1)
	if r.tel != nil {
		r.tel.sends.Inc()
		r.tel.bytesTotal.Add(sent)
		r.tel.bytesModel.Add(int64(bd.Model))
		r.tel.bytesMeta.Add(int64(bd.Meta + frameOverhead))
	}
	if r.rec != nil {
		r.rec.Record(sendTraceEvent(r.now, i, j, iter, len(payload), bd, dropped))
	}
	if !deliver {
		return
	}
	var cp []byte
	if !dropped {
		cp = payload
	}
	r.push(Event{
		Time: arriveAt, Kind: EventArrival,
		Node: j, From: i, Iter: iter, Dropped: dropped, payload: cp,
	})
}

// onArrival records a delivery (or drop notice) and re-checks the receiver's
// barrier.
func (r *asyncRun) onArrival(ev *Event) error {
	j := ev.Node
	st := &r.nodes[j]
	payload := ev.payload
	if !st.live {
		return nil // the receiver is gone; the message is lost
	}
	p := st.peer(ev.From)
	if ev.Iter > p.got {
		p.got = ev.Iter
	}
	if !ev.Dropped {
		if !r.blocking {
			// Keep only the freshest payload per sender.
			if p.consume(ev.Iter); len(p.box) > 0 {
				return nil
			}
		}
		p.put(ev.Iter, payload)
	}
	if st.waiting {
		return r.checkReady(j)
	}
	return nil
}

// checkReady consults the aggregation policy on node i's pending iteration:
// the full barrier fires once every live neighbor's payload (or drop notice,
// or departure) is in; bounded staleness once its quorum or lag bound holds;
// the deadline policy at the barrier or its deadline, whichever first.
func (r *asyncRun) checkReady(i int) error {
	st := &r.nodes[i]
	if !st.waiting {
		return nil
	}
	g, _ := r.graph()
	v := policyView{iter: st.iter, tau: r.curTau, deadline: st.deadlineFired, minGot: math.MaxInt}
	for _, j := range g.Neighbors(i) {
		v.live++
		got := st.peer(j).got
		if got >= st.iter {
			v.heard++
		}
		if got < v.minGot {
			v.minGot = got
		}
	}
	if !r.policy.ready(v) {
		return nil
	}
	st.waiting = false
	st.deadlineFired = false
	if r.telWait != nil {
		r.telWait.Observe(r.now - st.waitStart)
	}
	return r.aggregate(i)
}

// aggregate merges node i's buffered payloads under the live-subgraph mixing
// weights, advances its iteration, and reschedules training.
func (r *asyncRun) aggregate(i int) error {
	st := &r.nodes[i]
	g, w := r.graph()
	msgs := r.msgsPool.get(g.Degree(i))
	// lags holds one staleness sample per merged payload: the aggregator's
	// iteration minus the payload's, clamped at zero (neighbors running
	// ahead are not stale). The scratch is consumed synchronously below.
	lags := r.lagScratch[:0]
	for _, j := range g.Neighbors(i) {
		p := st.peer(j)
		if len(p.box) == 0 {
			continue
		}
		// Prefer the payload matching this iteration (blocking policies),
		// falling back to the freshest buffered one (gossip, a bounded or
		// deadline merge of a straggler, or a fast-forwarded joiner).
		best := 0
		for k, b := range p.box {
			if r.blocking && b.iter == st.iter {
				best = k
				break
			}
			if b.iter > p.box[best].iter {
				best = k
			}
		}
		b := p.box[best]
		msgs[j] = b.payload
		lags = append(lags, math.Max(0, float64(st.iter-b.iter)))
	}
	// Decode+mix runs on the pool: nothing on the event schedule depends on
	// its result (the payloads in msgs are immutable, the mixing row w[i] is
	// rebuilt — never mutated — on liveness changes), so the loop moves on
	// while the model updates. The node's next train chains after it; row
	// evaluation and Run's exit wait for every chain. The worker returns the
	// msgs map to the pool once Aggregate has consumed it — map identity
	// cannot affect results because nodes sort senders before merging.
	r.submitAggregate(i, st.iter, w[i], msgs)
	r.stale.add(st.iter, lags)
	if r.tel != nil {
		r.tel.aggregations.Inc()
		r.tel.inboxOccupancy.Observe(float64(len(lags)))
	}
	// Effective-neighbor / late-drop accounting: merged is what actually
	// mixed, expected the live-neighbor count, late the live neighbors whose
	// current-iteration payload had not landed (0 under the full barrier).
	{
		live, heard := g.Degree(i), 0
		for _, j := range g.Neighbors(i) {
			if st.peer(j).got >= st.iter {
				heard++
			}
		}
		r.polTrack.add(st.iter, len(lags), live, live-heard)
	}
	r.lagScratch = lags[:0]
	if r.rec != nil {
		// Mean and max are folded inline: summarizeLags would sort the
		// samples for a p95 the trace record does not carry.
		var sum, max float64
		for _, l := range lags {
			sum += l
			if l > max {
				max = l
			}
		}
		mean := 0.0
		if len(lags) > 0 {
			mean = sum / float64(len(lags))
		}
		r.rec.Record(trace.Event{
			Time: r.now, Kind: trace.KindAggregate, Node: i, Peer: -1, Iter: st.iter,
			LagMax: int(max), LagMean: mean, LagN: len(lags),
		})
	}
	if r.blocking {
		// Consume everything at or below the aggregated iteration, from every
		// sender. Emptied boxes stay in the mailbox: the same neighbor refills
		// them next iteration (epoch rotation prunes severed senders instead).
		for k := range st.peers {
			st.peers[k].consume(st.iter)
		}
	}
	r.liveAt[st.iter]--
	st.iter++
	r.liveAt[st.iter]++
	if err := r.emitRows(); err != nil {
		return err
	}
	if st.live && st.iter < r.cfg.Rounds && !r.stop {
		r.scheduleTrain(i)
	}
	return nil
}

// submitAggregate dispatches node i's aggregate for iteration iter on the
// pool, chained after the node's previous task.
func (r *asyncRun) submitAggregate(i, iter int, wi topology.Weights, msgs map[int][]byte) {
	r.tails[i] = r.pool.submit(r.tails[i], i, func() error {
		err := r.eng.Nodes[i].Aggregate(iter, wi, msgs)
		r.msgsPool.put(msgs)
		if err != nil {
			return fmt.Errorf("node %d aggregate: %w", i, err)
		}
		return nil
	})
}

// onLeave takes a node offline: its pending work is invalidated, the live
// subgraph shrinks, and neighbors blocked on it are re-checked.
func (r *asyncRun) onLeave(i int) error {
	st := &r.nodes[i]
	if !st.live {
		return nil
	}
	st.live = false
	st.gen++
	st.waiting = false
	st.deadlineFired = false
	r.liveAt[st.iter]--
	g, _ := r.graph() // the leaver's row, before it empties
	r.topo.SetLive(i, false)
	// Departure can unblock waiting neighbors and raise the row floor.
	return r.recheck(g.Neighbors(i))
}

// onJoin brings a node back: it keeps its (stale) model, fast-forwards to
// the run's current row floor, pulls every live neighbor's latest broadcast
// (the state sync that lets it participate in barriers whose payloads flew
// while it was away — without it, a joiner and a waiting neighbor could each
// block on a message the other will never resend), and starts training.
func (r *asyncRun) onJoin(i int) error {
	st := &r.nodes[i]
	if st.live {
		return nil
	}
	st.live = true
	st.gen++
	st.waiting = false
	st.deadlineFired = false
	if st.iter < r.emitted {
		st.iter = r.emitted
	}
	r.liveAt[st.iter]++
	// Anything buffered before the departure is stale connectivity. The
	// mailbox is truncated in place, not re-allocated: churn at 1024-node
	// scale must not grow the heap.
	st.keepPeers(func(int) bool { return false })
	r.topo.SetLive(i, true)
	g, _ := r.graph()
	for _, m := range g.Neighbors(i) {
		ms := &r.nodes[m]
		if ms.lastIter < 0 {
			continue
		}
		tx := float64(len(ms.lastPayload)+frameOverhead) / r.profiles[m].bandwidthBytesPerSec
		r.sendOne(m, i, ms.lastIter, ms.lastPayload, ms.lastBD, tx, false)
	}
	if st.iter < r.cfg.Rounds && !r.stop {
		r.scheduleTrain(i)
	}
	return r.recheck(g.Neighbors(i))
}

// recheck re-evaluates the emission floor and the readiness of the waiting
// nodes among nodes (ascending) after one node left or joined: only the rows
// of its neighbors changed, and a waiting node whose row, mailbox and
// deadline stand was not ready when last checked and is not ready now.
func (r *asyncRun) recheck(nodes []int) error {
	if err := r.emitRows(); err != nil {
		return err
	}
	for _, i := range nodes {
		if err := r.checkReady(i); err != nil {
			return err
		}
	}
	return nil
}

// recheckAll is recheck over the whole fleet, for epoch boundaries, where
// every row changes.
func (r *asyncRun) recheckAll() error {
	if err := r.emitRows(); err != nil {
		return err
	}
	for i := range r.nodes {
		if err := r.checkReady(i); err != nil {
			return err
		}
	}
	return nil
}

// emitRows publishes iteration rows up to the minimum iteration completed by
// all live nodes, evaluating on the sync engine's cadence.
func (r *asyncRun) emitRows() error {
	floor := r.minLiveIter()
	for r.emitted < floor && r.emitted < r.cfg.Rounds && !r.stop {
		k := r.emitted
		// Sampled runs reuse the row's eval subset for the alpha summary too,
		// keeping emission O(sample); exact runs keep the full-fleet mean.
		subset := r.evalSamp.subsetFor(k)
		rm := RoundMetrics{
			Round:            k,
			TrainLoss:        math.NaN(),
			TestLoss:         math.NaN(),
			TestAcc:          math.NaN(),
			CumTotalBytes:    r.ledger.total,
			CumModelBytes:    r.ledger.model,
			CumMetaBytes:     r.ledger.meta,
			SimTime:          r.now,
			MeanAlpha:        meanAlpha(r.alphas, subset),
			Epoch:            r.epoch,
			SpectralGap:      r.curGap,
			NeighborTurnover: r.curTurnover,
		}
		rm.StaleMean, rm.StaleMax, rm.StaleP95 = r.stale.rowStats(k)
		rm.EffNeighbors, rm.DropRate = r.polTrack.rowStats(k)
		if r.lossCount[k] > 0 {
			rm.TrainLoss = r.lossSum[k] / float64(r.lossCount[k])
		}
		if r.evalRow(k) {
			// Synchronization point: every chain must land before models are
			// read. Speculation safety guarantees that no node this row
			// scores has a train from the serial future among them.
			if err := r.drain(); err != nil {
				return err
			}
			var live []bool
			if subset != nil {
				// Sampled rows skip offline nodes (they contribute NaN); the
				// exact path keeps its historical all-nodes semantics, so the
				// live mask only exists when sampling is on.
				live = r.liveMask()
			}
			loss, acc, err := evaluateNodesOn(r.pool, r.eng.Nodes, r.eng.TestSet, subset, live)
			if err != nil {
				return err
			}
			rm.TestLoss, rm.TestAcc = loss, acc
			r.res.FinalAccuracy, r.res.FinalLoss = acc, loss
			if r.cfg.TargetAccuracy > 0 && acc >= r.cfg.TargetAccuracy && r.res.RoundsToTarget < 0 {
				r.res.RoundsToTarget = k + 1
				r.res.BytesToTarget = r.ledger.total
				r.res.TimeToTarget = r.now
				r.stop = true
			}
		}
		r.res.Rounds = append(r.res.Rounds, rm)
		if r.tel != nil {
			r.tel.rows.Inc()
		}
		if r.eng.OnRound != nil {
			r.eng.OnRound(rm)
		}
		r.emitted++
	}
	return nil
}

// minLiveIter is the lowest completed iteration among live nodes, or the
// emitted count when nobody is live (dead nodes cannot hold rows back
// forever; rows resume when someone rejoins behind the floor). No live node
// is ever behind the emitted rows — a joiner fast-forwards to them — so the
// walk over liveAt starts there and, rows being emitted up to the floor
// after every change, ends on its first step or two.
func (r *asyncRun) minLiveIter() int {
	for k := r.emitted; k < len(r.liveAt); k++ {
		if r.liveAt[k] > 0 {
			return k
		}
	}
	return r.emitted // freeze the floor while everyone is away
}
