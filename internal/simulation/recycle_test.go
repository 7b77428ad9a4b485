package simulation

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/vec"
)

// poisonNode overwrites every payload buffer the engine hands back with 0xA5
// before forwarding it, and counts how often the next Share reuses it. If
// anything still read a payload after the hand-back — an inbox, a decode
// cache entry, the ledger — or if a Share read its buffer's old bytes, the
// poisoned run would part from a clean one. It forwards LocalStepCount and
// SetDecodeCache, so the time model and the decode cache are unchanged; the
// engine's *core.JWINSNode assertion fails on it, so MeanAlpha reads NaN.
type poisonNode struct {
	core.Node
	handed   []byte // the buffer last handed back
	reused   int    // Shares that returned the handed-back array
	poisoned int    // non-nil buffers handed back
	lastNil  bool   // the last hand-back was nil
}

func (n *poisonNode) LocalStepCount() int { return localSteps(n.Node) }

func (n *poisonNode) SetDecodeCache(c *core.DecodeCache) {
	if u, ok := n.Node.(core.DecodeCacheUser); ok {
		u.SetDecodeCache(c)
	}
}

func (n *poisonNode) RecyclePayload(p []byte) {
	all := p[:cap(p)]
	for i := range all {
		all[i] = 0xA5
	}
	n.handed, n.lastNil = p, p == nil
	if p != nil {
		n.poisoned++
	}
	n.Node.(core.PayloadRecycler).RecyclePayload(p)
}

func (n *poisonNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	p, bd, err := n.Node.Share(round)
	if len(p) > 0 && len(n.handed) > 0 && &p[0] == &n.handed[0] {
		n.reused++
	}
	n.handed = nil
	return p, bd, err
}

// TestRecycledPayloadsPoisoned: a synchronous run whose handed-back payload
// buffers are poisoned matches an untouched run bit for bit — every row
// (MeanAlpha aside, which the wrapper hides), the byte ledger and every
// node's final parameters — for every algorithm that recycles, both codecs,
// with and without drops, on the worker pool; and the poisoned buffers
// really were reused.
func TestRecycledPayloadsPoisoned(t *testing.T) {
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
	run := func(t *testing.T, kind algo, fc codec.FloatCodec, drop float64, poison bool) (*Result, [][]float64, []*poisonNode) {
		t.Helper()
		ds, parts := buildTask(t, n, 42)
		inner := buildNodesWithCodec(t, kind, ds, parts, 7, fc)
		nodes := inner
		var wrapped []*poisonNode
		if poison {
			nodes = make([]core.Node, n)
			for i, nd := range inner {
				w := &poisonNode{Node: nd}
				nodes[i], wrapped = w, append(wrapped, w)
			}
		}
		g, err := topology.Regular(n, 4, vec.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{Nodes: nodes, Topology: topology.NewStatic(g), TestSet: ds, Config: Config{
			Rounds: rounds, EvalEvery: 3, Parallelism: 2, DropProb: drop, FaultSeed: 3,
		}}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		var params [][]float64
		for _, nd := range inner {
			x := make([]float64, nd.Model().ParamCount())
			nd.Model().CopyParams(x)
			params = append(params, x)
		}
		return res, params, wrapped
	}
	for _, al := range algos {
		for _, cd := range codecs {
			for _, drop := range []float64{0, 0.2} {
				al, cd, drop := al, cd, drop
				t.Run(fmt.Sprintf("%s/%s/drop%g", al.name, cd.name, drop), func(t *testing.T) {
					ref, refParams, _ := run(t, al.kind, cd.fc, drop, false)
					got, gotParams, wrapped := run(t, al.kind, cd.fc, drop, true)
					if err := resultDiff(withoutAlpha(ref), got); err != nil {
						t.Fatalf("the poisoned fleet reported another result: %v", err)
					}
					for i := range refParams {
						for k := range refParams[i] {
							if math.Float64bits(refParams[i][k]) != math.Float64bits(gotParams[i][k]) {
								t.Fatalf("node %d parameter %d: poisoned %v, clean %v", i, k, gotParams[i][k], refParams[i][k])
							}
						}
					}
					reused := 0
					for i, w := range wrapped {
						if w.poisoned != rounds || !w.lastNil {
							t.Fatalf("node %d: %d buffers handed back (want %d), last nil %v", i, w.poisoned, rounds, w.lastNil)
						}
						reused += w.reused
					}
					// Round 0 encodes into nothing; a dense payload fits its
					// buffer every later round, a JWINS one when α shrinks.
					if reused == 0 {
						t.Fatal("no Share encoded into its handed-back buffer")
					}
					t.Logf("%d of %d Shares reused their handed-back buffer", reused, n*(rounds-1))
				})
			}
		}
	}
}
