package simulation

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/topology"
	"repro/internal/vec"
)

// asyncEngineFor builds an AsyncEngine over the standard 8-node test task.
func asyncEngineFor(t *testing.T, kind algo, rounds int, mut func(*AsyncConfig)) *AsyncEngine {
	t.Helper()
	const n = 8
	ds, parts := buildTask(t, n, 42)
	nodes := buildNodes(t, kind, ds, parts, 7)
	g, err := topology.Regular(n, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := AsyncConfig{
		Config: Config{Rounds: rounds, EvalEvery: rounds, Parallelism: 2},
	}
	if mut != nil {
		mut(&cfg)
	}
	return &AsyncEngine{
		Nodes:    nodes,
		Topology: topology.NewStatic(g),
		TestSet:  ds,
		Config:   cfg,
	}
}

func runAsync(t *testing.T, kind algo, rounds int, mut func(*AsyncConfig)) *Result {
	t.Helper()
	res, err := asyncEngineFor(t, kind, rounds, mut).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAsyncStragglersSlowOnlyNeighbors: a heavy compute tail must stretch
// simulated time, and the run must still learn.
func TestAsyncStragglersStretchTime(t *testing.T) {
	base := runAsync(t, algoFull, 12, nil)
	straggled := runAsync(t, algoFull, 12, func(cfg *AsyncConfig) {
		cfg.Het = Heterogeneity{ComputeSpread: 1.0, Seed: 11}
	})
	if straggled.SimTime <= base.SimTime {
		t.Fatalf("stragglers did not stretch sim time: %v <= %v", straggled.SimTime, base.SimTime)
	}
	if straggled.FinalAccuracy < 0.55 {
		t.Fatalf("straggled run failed to learn: %.2f", straggled.FinalAccuracy)
	}
}

// TestAsyncChurnJWINSSurvives: a third of the nodes leave and rejoin mid-run
// under the barrier policy; partial-sharing averaging must keep converging.
func TestAsyncChurnJWINSSurvives(t *testing.T) {
	res := runAsync(t, algoJWINS, 30, func(cfg *AsyncConfig) {
		cfg.Churn = GenerateChurn(8, 0.33, 0.05, 0.5, 0.2, 13)
	})
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("JWINS under churn reached only %.2f", res.FinalAccuracy)
	}
	if len(res.Rounds) != 30 {
		t.Fatalf("run did not complete all rows: %d/30", len(res.Rounds))
	}
}

// TestAsyncGossipLearns: the non-blocking policy mixes stale models but must
// still converge on the degenerate (homogeneous) task.
func TestAsyncGossipLearns(t *testing.T) {
	res := runAsync(t, algoFull, 30, func(cfg *AsyncConfig) {
		cfg.Policy = GossipPolicy{}
		cfg.Het = Heterogeneity{ComputeSpread: 0.5, Seed: 21}
	})
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("gossip policy reached only %.2f", res.FinalAccuracy)
	}
}

// TestAsyncValidation: bad configurations must error, not hang.
func TestAsyncValidation(t *testing.T) {
	eng := &AsyncEngine{}
	if _, err := eng.Run(); err == nil {
		t.Fatal("empty async engine accepted")
	}
	eng3 := asyncEngineFor(t, algoFull, 3, func(cfg *AsyncConfig) {
		cfg.Churn = []ChurnEvent{{Time: 0.01, Node: 99}} // out of range
	})
	if _, err := eng3.Run(); err == nil {
		t.Fatal("out-of-range churn node accepted")
	}
}

// TestSampleProfilesDegenerate: zero spreads must reproduce the base time
// model exactly, and sampling must be deterministic in the seed.
func TestSampleProfilesDegenerate(t *testing.T) {
	base := nodeProfile{computeSecPerStep, bandwidthBytesPerSec, latencySec}
	for i, p := range sampleProfiles(4, Heterogeneity{}) {
		if p != base {
			t.Fatalf("profile %d deviates from base without heterogeneity: %+v", i, p)
		}
	}
	het := Heterogeneity{ComputeSpread: 0.5, Seed: 9}
	a := sampleProfiles(4, het)
	b := sampleProfiles(4, het)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("profile sampling not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	varied := false
	for i := 1; i < len(a); i++ {
		if a[i].computeSecPerStep != a[0].computeSecPerStep {
			varied = true
		}
	}
	if !varied {
		t.Fatal("nonzero spread produced identical profiles")
	}
}

// TestGenerateChurnShape: trace is seeded, paired (leave before rejoin), and
// sized by the requested fraction.
func TestGenerateChurnShape(t *testing.T) {
	tr := GenerateChurn(16, 0.25, 1, 10, 2, 5)
	if len(tr) != 8 { // 4 victims x (leave + join)
		t.Fatalf("expected 8 events, got %d", len(tr))
	}
	leaves := map[int]float64{}
	for _, ev := range tr {
		if !ev.Join {
			if ev.Time < 1 || ev.Time >= 10 {
				t.Fatalf("leave time %v outside [1,10)", ev.Time)
			}
			leaves[ev.Node] = ev.Time
		}
	}
	for _, ev := range tr {
		if ev.Join {
			left, ok := leaves[ev.Node]
			if !ok {
				t.Fatalf("node %d rejoins without leaving", ev.Node)
			}
			if ev.Time <= left {
				t.Fatalf("node %d rejoins at %v before leaving at %v", ev.Node, ev.Time, left)
			}
		}
	}
	again := GenerateChurn(16, 0.25, 1, 10, 2, 5)
	for i := range tr {
		if tr[i] != again[i] {
			t.Fatalf("churn trace not deterministic at %d", i)
		}
	}
	if got := GenerateChurn(16, 0, 1, 10, 2, 5); got != nil {
		t.Fatalf("zero fraction should yield nil trace, got %v", got)
	}
}

// TestMailboxRules holds a node's sender-keyed mailbox to its rules: every
// arrival, dropped or not, raises its sender's got; gossip keeps only the
// freshest payload and refuses a staler one; blocking policies keep every
// iteration, a re-sent one replacing the earlier payload, until an aggregate
// consumes all of them at or below its iteration from every sender; a prune
// or rejoin forgets a sender entirely, got included.
func TestMailboxRules(t *testing.T) {
	arrive := func(r *asyncRun, from, iter int, dropped bool) []byte {
		t.Helper()
		p := []byte{byte(from), byte(iter)}
		if err := r.onArrival(&Event{Node: 0, From: from, Iter: iter, Dropped: dropped, payload: p}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(r *asyncRun, from, got int, iters ...int) {
		t.Helper()
		p := r.nodes[0].peer(from)
		have := make([]int, 0, len(p.box))
		for _, b := range p.box {
			have = append(have, b.iter)
		}
		sort.Ints(have)
		if p.got != got || fmt.Sprint(have) != fmt.Sprint(iters) {
			t.Fatalf("sender %d: got %d, box %v; want got %d, box %v", from, p.got, have, got, iters)
		}
	}

	gossip := &asyncRun{nodes: []asyncNode{{live: true}}}
	arrive(gossip, 1, 3, false)
	arrive(gossip, 1, 2, false) // staler than what is held: refused
	check(gossip, 1, 3, 3)
	arrive(gossip, 1, 5, true) // a drop notice raises got only
	check(gossip, 1, 5, 3)
	arrive(gossip, 1, 4, false)
	check(gossip, 1, 5, 4)

	barrier := &asyncRun{nodes: []asyncNode{{live: true}}, blocking: true}
	arrive(barrier, 1, 2, false)
	arrive(barrier, 1, 3, false)
	resent := arrive(barrier, 1, 2, false) // a state sync re-sends iteration 2
	arrive(barrier, 2, 1, false)
	arrive(barrier, 2, 4, false)
	check(barrier, 1, 3, 2, 3)
	if p := barrier.nodes[0].peer(1); &p.box[0].payload[0] != &resent[0] && &p.box[1].payload[0] != &resent[0] {
		t.Fatal("a re-sent iteration did not replace the buffered payload")
	}
	st := &barrier.nodes[0]
	for k := range st.peers {
		st.peers[k].consume(2) // what an aggregate of iteration 2 does
	}
	check(barrier, 1, 3, 3)
	check(barrier, 2, 4, 4)
	st.peers[0].consume(3)
	if len(st.peers) != 2 {
		t.Fatalf("an emptied box left the mailbox: %d senders, want 2", len(st.peers))
	}

	st.keepPeers(func(from int) bool { return from != 1 }) // edge 0-1 severed
	check(barrier, 2, 4, 4)
	check(barrier, 1, -1)                         // re-created empty: its old got must not count
	st.keepPeers(func(int) bool { return false }) // rejoin
	check(barrier, 2, -1)
}
