package simulation

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vec"
)

// deliveryProbe observes what a fleet of probeNodes is handed: payloads
// delivered, distinct (round, sender) broadcasts among them, and — in the
// cached arm — the live entry count of the cache the engine attached.
type deliveryProbe struct {
	mu         sync.Mutex
	deliveries int64
	broadcasts map[[2]int]bool
	cache      *core.DecodeCache
	attached   bool
	maxLive    int
}

// probeNode wraps every node of both arms of the decode-cache parity tests,
// so the two differ in exactly one thing: whether SetDecodeCache reaches the
// node. The cache has no off switch; a perRecipient probeNode is the
// reference arm: it swallows the call, so the wrapped node decodes every
// payload it receives into its own scratch. It forwards LocalStepCount so the
// time model is unchanged; the engines' *core.JWINSNode assertions fail on it,
// so MeanAlpha reads NaN.
type probeNode struct {
	core.Node
	p            *deliveryProbe
	perRecipient bool
}

// probeFleet wraps nodes in probeNodes reporting to one new probe.
func probeFleet(nodes []core.Node, perRecipient bool) ([]core.Node, *deliveryProbe) {
	p := &deliveryProbe{broadcasts: map[[2]int]bool{}}
	out := make([]core.Node, len(nodes))
	for i, nd := range nodes {
		out[i] = &probeNode{Node: nd, p: p, perRecipient: perRecipient}
	}
	return out, p
}

// perRecipientFleet is the reference arm for tests that need no probe.
func perRecipientFleet(nodes []core.Node) []core.Node {
	out, _ := probeFleet(nodes, true)
	return out
}

func (n *probeNode) LocalStepCount() int { return localSteps(n.Node) }

func (n *probeNode) SetDecodeCache(c *core.DecodeCache) {
	if n.perRecipient {
		return
	}
	n.p.mu.Lock()
	n.p.cache = c
	n.p.attached = n.p.attached || c != nil
	n.p.mu.Unlock()
	if u, ok := n.Node.(core.DecodeCacheUser); ok {
		u.SetDecodeCache(c)
	}
}

func (n *probeNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	err := n.Node.Aggregate(round, w, msgs)
	n.p.mu.Lock()
	defer n.p.mu.Unlock()
	n.p.deliveries += int64(len(msgs))
	for from := range msgs {
		n.p.broadcasts[[2]int{round, from}] = true
	}
	if n.p.cache != nil {
		n.p.maxLive = max(n.p.maxLive, n.p.cache.Len())
	}
	return err
}

// offlineRounds takes each node off the round's graph with probability
// prob: an offline node neither sends nor receives that round (it still
// trains and keeps its own model), so its broadcast is one no recipient
// decodes.
type offlineRounds struct {
	*topology.EpochProvider
	n    int
	prob float64
	rng  *vec.RNG
}

func (o *offlineRounds) Round(t int) (*topology.Graph, []topology.Weights) {
	for i := 0; i < o.n; i++ {
		o.SetLive(i, o.rng.Float64() >= o.prob)
	}
	return o.EpochProvider.Round(t)
}

// TestSyncDecodeOnceParity: the synchronous engine's fleet-shared decode
// cache must be invisible in the results. For every algorithm, codec,
// parallelism level and delivery pattern (clean, drops + nodes cut off the
// round's graph, per-round re-randomized graph), a run whose nodes share the cache matches
// the per-recipient-decode reference bit for bit — rows, byte ledger, final
// metrics and every node's final parameters — while serving every delivery
// from the vector its sender published, decoding none, and never holding
// more than one round of entries.
func TestSyncDecodeOnceParity(t *testing.T) {
	const (
		n      = 8
		rounds = 6
	)
	algos := []struct {
		name string
		kind algo
	}{
		{"full-sharing", algoFull},
		{"jwins", algoJWINS},
		{"random-sampling", algoRandom},
		{"choco", algoChoco},
	}
	codecs := []struct {
		name string
		fc   codec.FloatCodec
	}{
		{"flate32", codec.PlaneFlate32{}},
		{"raw32", codec.Raw32{}},
	}
	deliveries := []struct {
		name    string
		dynamic bool
		offline float64
		cfg     Config
	}{
		{"clean", false, 0, Config{}},
		{"drops+offline", false, 0.1, Config{DropProb: 0.1, FaultSeed: 3}},
		{"dynamic", true, 0, Config{}},
	}

	type outcome struct {
		res    *Result
		params [][]float64
		probe  *deliveryProbe
	}
	run := func(t *testing.T, kind algo, fc codec.FloatCodec, p int, dynamic bool, offline float64, base Config, perRecipient bool) outcome {
		t.Helper()
		ds, parts := buildTask(t, n, 42)
		inner := buildNodesWithCodec(t, kind, ds, parts, 7, fc)
		nodes, probe := probeFleet(inner, perRecipient)
		var provider topology.Provider
		if dynamic {
			provider = topology.NewSeededDynamic(n, 4, 35)
		} else {
			g, err := topology.Regular(n, 4, vec.NewRNG(9))
			if err != nil {
				t.Fatal(err)
			}
			provider = topology.NewStatic(g)
			if offline > 0 {
				provider = &offlineRounds{topology.NewEpochProvider(provider, n, 0), n, offline, vec.NewRNG(3)}
			}
		}
		cfg := base
		cfg.Rounds, cfg.EvalEvery, cfg.Parallelism = rounds, 3, p
		eng := &Engine{Nodes: nodes, Topology: provider, TestSet: ds, Config: cfg}
		eng.OnRound = func(rm RoundMetrics) {
			if probe.cache != nil && probe.cache.Len() != 0 {
				t.Errorf("round %d: %d cache entries outlive the round", rm.Round, probe.cache.Len())
			}
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{res: res, probe: probe}
		for _, nd := range inner {
			params := make([]float64, nd.Model().ParamCount())
			nd.Model().CopyParams(params)
			out.params = append(out.params, params)
		}
		return out
	}

	for _, al := range algos {
		for _, cd := range codecs {
			for _, dl := range deliveries {
				for _, p := range parallelismLevels() {
					al, cd, dl, p := al, cd, dl, p
					t.Run(fmt.Sprintf("%s/%s/%s/p%d", al.name, cd.name, dl.name, p), func(t *testing.T) {
						ref := run(t, al.kind, cd.fc, p, dl.dynamic, dl.offline, dl.cfg, true)
						got := run(t, al.kind, cd.fc, p, dl.dynamic, dl.offline, dl.cfg, false)
						if err := resultDiff(ref.res, got.res); err != nil {
							t.Fatalf("the cached fleet reported another result: %v", err)
						}
						for i := range ref.params {
							for k := range ref.params[i] {
								if math.Float64bits(ref.params[i][k]) != math.Float64bits(got.params[i][k]) {
									t.Fatalf("node %d parameter %d differs: cached %v, per-recipient %v",
										i, k, got.params[i][k], ref.params[i][k])
								}
							}
						}

						// Both arms ran the same schedule; only the cached arm
						// was handed a cache, and it let go of it at the end.
						if ref.probe.deliveries != got.probe.deliveries || len(ref.probe.broadcasts) != len(got.probe.broadcasts) {
							t.Fatalf("arms delivered differently: %d/%d payloads, %d/%d broadcasts",
								ref.probe.deliveries, got.probe.deliveries, len(ref.probe.broadcasts), len(got.probe.broadcasts))
						}
						if ref.probe.attached || !got.probe.attached {
							t.Fatalf("cache attached: reference %v, cached arm %v", ref.probe.attached, got.probe.attached)
						}
						if got.probe.cache != nil {
							t.Fatal("engine did not detach the cache when Run returned")
						}

						if dl.cfg.DropProb == 0 && len(got.probe.broadcasts) != n*rounds {
							t.Fatalf("%d broadcasts delivered, want every node every round (%d)", len(got.probe.broadcasts), n*rounds)
						}

						// Every sender published what it encoded into an
						// emptied cache, so every delivery is a hit and no
						// payload is decoded; at most one entry per sender.
						// The per-recipient arm decoded every byte, so the
						// bit-identity above is the end-to-end honesty check.
						wantHits, wantMisses := got.probe.deliveries, int64(0)
						snap := got.res.Telemetry
						if snap == nil {
							t.Fatal("sync run left no telemetry snapshot")
						}
						if h, m := snap.Counter(MetricDecodeHits), snap.Counter(MetricDecodeMisses); h != wantHits || m != wantMisses {
							t.Fatalf("decode cache (%d hits, %d misses), want (%d, %d) for %d deliveries of %d broadcasts",
								h, m, wantHits, wantMisses, got.probe.deliveries, len(got.probe.broadcasts))
						}
						if wantHits == 0 {
							t.Fatal("no payload was delivered: the matrix does not exercise the cache")
						}
						if got.probe.maxLive > n {
							t.Fatalf("%d live cache entries during a round, want at most %d (one per sender)", got.probe.maxLive, n)
						}
					})
				}
			}
		}
	}
}

// TestDecodeCacheEngineParity: the fleet-shared decoded-payload cache must be
// purely an allocation/compute optimization — a run with the cache must match
// a per-recipient-decode run record for record, row for row, under
// heterogeneity, churn and drops, at serial and parallel dispatch. The
// reference fleet is wrapped in per-recipient probeNodes, which keep the
// cache from their nodes (and, being no *core.JWINSNode, read NaN for
// MeanAlpha).
func TestDecodeCacheEngineParity(t *testing.T) {
	for _, arm := range []struct{ name, row string }{
		{"plain", "parallelism/homogeneous"},
		{"churn-drops", "parallelism/het+churn+drops"},
	} {
		sc := regressionRow(t, arm.row)
		t.Run(arm.name, func(t *testing.T) {
			for _, p := range parallelismLevels() {
				off := execute(t, sc, p, runOpts{wrap: perRecipientFleet})
				on := execute(t, sc, p, runOpts{})
				if err := traceDiff(off.trace, on.trace); err != nil {
					t.Fatalf("p=%d: the cached fleet recorded another trace: %v", p, err)
				}
				if err := resultDiff(off.res, withoutAlpha(on.res)); err != nil {
					t.Fatalf("p=%d: the cached fleet reported another result: %v", p, err)
				}
			}
		})
	}
}

// TestAsyncDecodeCacheOneEntryPerSender: the async engine's decode cache
// holds at most one entry per sender at every pool width, checked at every
// record of a churn run under the barrier and under gossip.
func TestAsyncDecodeCacheOneEntryPerSender(t *testing.T) {
	const nodes = 16
	for _, policy := range []AggregationPolicy{BarrierPolicy{}, GossipPolicy{}} {
		for _, p := range parallelismLevels() {
			ds, parts := buildTask(t, nodes, 42)
			fleet, probe := probeFleet(buildNodes(t, algoJWINS, ds, parts, 7), false)
			g, err := topology.Regular(nodes, 4, vec.NewRNG(9))
			if err != nil {
				t.Fatal(err)
			}
			var records, maxLen, leaves int
			cfg := AsyncConfig{
				Config: Config{Rounds: 10, EvalEvery: 5, Parallelism: p},
				Het:    Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.4, Seed: 5},
				Churn:  GenerateChurn(nodes, 0.25, 0.02, 0.2, 0.1, 77),
				Policy: policy,
				Record: sinkFunc(func(ev trace.Event) {
					probe.mu.Lock()
					cache := probe.cache
					probe.mu.Unlock()
					if n := cache.Len(); n > nodes {
						t.Errorf("%s p=%d: record %d: %d cache entries for %d senders", policy.Name(), p, records, n, nodes)
					} else {
						maxLen = max(maxLen, n)
					}
					records++
					if ev.Kind == trace.KindLeave {
						leaves++
					}
				}),
			}
			eng := &AsyncEngine{Nodes: fleet, Topology: topology.NewStatic(g), TestSet: ds, Config: cfg}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s p=%d: %d records, %d leaves, at most %d cache entries", policy.Name(), p, records, leaves, maxLen)
			if leaves == 0 || maxLen == 0 {
				t.Fatalf("%s p=%d: %d leaves and at most %d entries: the run does not exercise the bound", policy.Name(), p, leaves, maxLen)
			}
		}
	}
}
