package simulation

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestEngineRejectsZeroRounds(t *testing.T) {
	const n = 4
	ds, parts := buildTask(t, n, 71)
	nodes := buildNodes(t, algoFull, ds, parts, 73)
	eng := &Engine{
		Nodes:    nodes,
		Topology: topology.NewStatic(topology.Ring(n)),
		TestSet:  ds,
		Config:   Config{Rounds: 0},
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestEngineRejectsTopologyMismatch(t *testing.T) {
	const n = 4
	ds, parts := buildTask(t, n, 81)
	nodes := buildNodes(t, algoFull, ds, parts, 83)
	eng := &Engine{
		Nodes:    nodes,
		Topology: topology.NewStatic(topology.Ring(n + 2)), // wrong size
		TestSet:  ds,
		Config:   Config{Rounds: 1},
	}
	_, err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "topology") {
		t.Fatalf("topology mismatch not rejected: %v", err)
	}
}

func TestOnRoundCallback(t *testing.T) {
	const n = 4
	ds, parts := buildTask(t, n, 95)
	nodes := buildNodes(t, algoFull, ds, parts, 97)
	var seen []int
	eng := &Engine{
		Nodes:    nodes,
		Topology: topology.NewStatic(topology.Ring(n)),
		TestSet:  ds,
		Config:   Config{Rounds: 3, EvalEvery: 1},
		OnRound:  func(rm RoundMetrics) { seen = append(seen, rm.Round) },
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("OnRound calls: %v", seen)
	}
}
